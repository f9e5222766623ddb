import math
from fractions import Fraction

import numpy as np
import pytest

from tracelab import (GraphError, binomial_cdf, binomial_tail_bound,
                      bounds_report, build_table, complete_graph,
                      cover_time_spectral_bound, cycle_graph, exact_binomial_ci,
                      expander_mixing_check, foster_sum, harmonic,
                      hitting_time_tetali, hitting_times_to, matthews_bounds,
                      mixing_time_bound, paley_zygmund_lower, path_graph,
                      petersen_graph, random_regular, resistance_bounds,
                      resistance_matrix, visit_lower_bound)

try:
    from scipy import stats as sps
    HAS_SCIPY = True
except ImportError:
    HAS_SCIPY = False


def test_harmonic():
    assert harmonic(0) == 0.0
    assert harmonic(1) == 1.0
    assert harmonic(3) == pytest.approx(11.0 / 6.0, abs=1e-15)
    want = float(sum(Fraction(1, k) for k in range(1, 51)))
    assert harmonic(50) == pytest.approx(want, abs=1e-14)


def test_matthews_example():
    lo, hi = matthews_bounds(1.0, 1.0, 3, convention="n")
    assert lo == pytest.approx(11.0 / 6.0)
    assert hi == pytest.approx(11.0 / 6.0)
    # upper side always uses H_n; the convention moves only the lower side
    lo, hi = matthews_bounds(2.0, 5.0, 4)
    assert lo == pytest.approx(2.0 * harmonic(3))
    assert hi == pytest.approx(5.0 * harmonic(4))
    lo_n, _ = matthews_bounds(2.0, 5.0, 4, convention="n")
    assert lo_n == pytest.approx(2.0 * harmonic(4))


def test_hitting_closed_forms():
    # complete graph: H(u, v) = n - 1
    g = complete_graph(6)
    h = hitting_times_to(g, 2)
    for u in range(6):
        want = 0.0 if u == 2 else 5.0
        assert h[u] == pytest.approx(want, abs=1e-9)
    # cycle: H(0, k) = k (n - k)
    g = cycle_graph(8)
    h = hitting_times_to(g, 0)
    for k in range(8):
        assert h[k] == pytest.approx(k * (8 - k), abs=1e-9)
    # path: H(0, k) = k^2
    g = path_graph(6)
    h = hitting_times_to(g, 5)
    assert h[0] == pytest.approx(25.0, abs=1e-9)


def test_tetali_matches_exact():
    graphs = [complete_graph(5), cycle_graph(7), path_graph(6), petersen_graph(),
              random_regular(12, 3, 0), random_regular(14, 5, 1)]
    for g in graphs:
        r = resistance_matrix(g)
        for v in range(g.n):
            want = hitting_times_to(g, v)
            for u in range(g.n):
                got = hitting_time_tetali(g, r, u, v)
                assert abs(got - want[u]) < 1e-8


def test_build_table_variants():
    # Petersen's hitting times are symmetric, so the path checks orientation
    for g in (path_graph(6), petersen_graph()):
        t = build_table(g, hitting="tetali")
        want = np.column_stack([hitting_times_to(g, v) for v in range(g.n)])
        assert np.allclose(t.hitting, want, atol=1e-8)
    assert np.allclose(np.diag(t.hitting), 0.0)
    assert t.resistance_method == "laplacian-dense"
    ft = foster_sum(g, t.resistance)
    assert ft == pytest.approx(9.0, abs=1e-9)
    assert build_table(g).hitting is None
    with pytest.raises(ValueError):
        build_table(g, hitting="exact")


def test_resistance_and_cover_bounds():
    lo, hi = resistance_bounds(16, 8.0)
    assert lo == pytest.approx(2.0 / 17.0)
    assert hi == pytest.approx(0.25)
    sb = cover_time_spectral_bound(1000, 16, 4.0, eps=0.1)
    assert sb.h_lower == pytest.approx(
        0.5 * 1000 * 16 * (4.0 / 17.0 - 2.0 / 12.0))
    assert sb.h_upper == pytest.approx(
        0.5 * 1000 * 16 * (4.0 / 12.0 - 2.0 / 17.0))
    assert sb.cover_upper == pytest.approx(sb.h_upper * harmonic(1000))
    assert sb.h_upper > sb.h_lower > 0


def test_bounds_report_bands():
    # band membership needs 2/d + lam/d below 0.1 eps; (d, lam) = (2000, 5) is in,
    # (100, 10) is far out
    n = 100000
    rep = bounds_report(n, 2000, 5.0, eps=0.1, xi=0.01)
    assert rep.lower_in_band and rep.upper_in_band
    assert abs(rep.h_lower - n) <= 0.01 * n
    assert abs(rep.h_upper - n) <= 0.01 * n
    out = bounds_report(10000, 100, 10.0, eps=0.1, xi=0.01)
    assert not (out.lower_in_band or out.upper_in_band)
    assert out.mixing_bound == pytest.approx(
        mixing_time_bound(10000, 100, 10.0, 0.01))


def exact_cdf_fraction(n, p_num, p_den, t):
    """P(X <= t) in exact rational arithmetic."""
    p = Fraction(p_num, p_den)
    total = Fraction(0)
    for k in range(t + 1):
        total += math.comb(n, k) * p**k * (1 - p)**(n - k)
    return total


def test_binomial_cdf_exact():
    for n in (1, 5, 17, 40):
        for num, den in ((1, 10), (1, 3), (1, 2), (7, 10)):
            for t in range(-1, n + 1):
                want = float(exact_cdf_fraction(n, num, den, t)) if t >= 0 else 0.0
                got = binomial_cdf(n, num / den, t)
                assert got == pytest.approx(want, abs=1e-12)
    assert binomial_cdf(10, 0.3, 10) == pytest.approx(1.0, abs=1e-14)


def test_tail_bound_dominates_strict_event():
    """t C(n,t) p^t (1-p)^(n-t) >= P(X < t) for t <= n p."""
    for n in range(2, 41):
        for p in np.linspace(0.1, 0.9, 9):
            for t in range(1, int(n * p) + 1):
                bound = binomial_tail_bound(n, float(p), t)
                strict = binomial_cdf(n, float(p), t - 1)
                assert bound >= strict - 1e-12


def test_tail_bound_fails_weak_event_at_t1():
    """The same expression does NOT dominate P(X <= t) at t = 1: the gap
    to the weak event is exactly (1-p)^n. Pinning this keeps anyone from
    'fixing' the strict inequality into a wrong one."""
    n, p = 20, 0.3
    bound = binomial_tail_bound(n, p, 1)
    weak = binomial_cdf(n, p, 1)
    strict = binomial_cdf(n, p, 0)
    assert bound >= strict
    assert bound < weak
    assert weak - bound == pytest.approx((1 - p) ** n, abs=1e-12)


def test_tail_bound_domain():
    with pytest.raises(ValueError):
        binomial_tail_bound(10, 0.2, 3)  # t > n p
    assert binomial_tail_bound(10, 0.5, 0) == 0.0


def test_paley_zygmund_bernoulli_equality():
    for q in (0.1, 0.25, 0.6, 0.99):
        # Z ~ Bernoulli(q): E Z = q, E Z^2 = q, bound = q^2 / q = q
        assert paley_zygmund_lower(q, q) == pytest.approx(q, abs=1e-12)
    assert paley_zygmund_lower(0.0, 1.0) == 0.0


def test_visit_lower_bound():
    assert visit_lower_bound(16.0) == pytest.approx(0.125)
    assert visit_lower_bound(4.0, eps=0.5) == pytest.approx(0.25)


def test_exact_binomial_ci():
    lo, hi = exact_binomial_ci(0, 10)
    assert lo == 0.0
    assert hi == pytest.approx(1 - 0.025 ** (1 / 10), abs=1e-9)
    lo, hi = exact_binomial_ci(10, 10)
    assert hi == 1.0
    lo, hi = exact_binomial_ci(3, 10, 0.95)
    assert 0.0 < lo < 0.3 < hi < 1.0
    # CI ends invert the exact tail probabilities
    assert binomial_cdf(10, hi, 3 - 1) + (binomial_cdf(10, hi, 3)
                                          - binomial_cdf(10, hi, 2)) == pytest.approx(
        binomial_cdf(10, hi, 3), abs=1e-12)
    assert 1 - binomial_cdf(10, lo, 2) == pytest.approx(0.025, abs=1e-7)
    assert binomial_cdf(10, hi, 3) == pytest.approx(0.025, abs=1e-7)


@pytest.mark.parametrize("hits, trials, level, want_lo, want_hi", [
    (230, 1000, 0.99, "0x1.9299b9cae6bbcp-3", "0x1.106a962ae451cp-2"),
    (2400, 10000, 0.99, "0x1.d52563eea08bep-3", "0x1.0133a88557a6cp-2"),
    (3, 10, 0.95, "0x1.115d731dc017ap-4", "0x1.4e0e4cca611dap-1"),
    (199, 200, 0.95, "0x1.f1e6073db686cp-1", "0x1.ffef68a540024p-1"),
])
def test_exact_binomial_ci_pinned_bits(hits, trials, level, want_lo, want_hi):
    """The interval ends are the bisection's, to the last bit: the summary
    JSON reports them, and the criteria read them."""
    lo, hi = exact_binomial_ci(hits, trials, level)
    assert (lo.hex(), hi.hex()) == (want_lo, want_hi)


def generator_binomial_ci(hits, trials, level):
    """The interval's bisection as a per-term Python generator: each step
    sums exp(c + j * lp + (trials - j) * lq) over j in Python floats."""
    alpha = 1.0 - level

    def solve(target, k):
        head = math.lgamma(trials + 1)
        coef = [head - math.lgamma(j + 1) - math.lgamma(trials - j + 1) for j in range(k + 1)]
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lp, lq = math.log(mid), math.log1p(-mid)
            cdf = math.fsum(math.exp(c + j * lp + (trials - j) * lq)
                            for j, c in enumerate(coef))
            settled = mid == lo or mid == hi
            if cdf > target:
                lo = mid
            else:
                hi = mid
            if settled:
                break
        return 0.5 * (lo + hi)

    lower = 0.0 if hits == 0 else solve(1.0 - alpha / 2.0, hits - 1)
    upper = 1.0 if hits == trials else solve(alpha / 2.0, hits)
    return lower, upper


@pytest.mark.parametrize("trials", [1, 2, 3, 10, 17, 200, 1000, 5000])
def test_exact_binomial_ci_matches_the_generator_sum(trials):
    """The array-built terms sum to the same floats as the generator's, so
    every interval end agrees to the last bit. At 5000 trials only the
    extreme levels run: the generator takes about 1 s per level there."""
    levels = (0.5, 0.999) if trials == 5000 else (0.5, 0.9, 0.95, 0.99, 0.999)
    for hits in sorted({0, 1, trials // 3, trials // 2, trials - 1, trials}):
        for level in levels:
            got = exact_binomial_ci(hits, trials, level)
            want = generator_binomial_ci(hits, trials, level)
            assert [x.hex() for x in got] == [x.hex() for x in want], (hits, level)


@pytest.mark.skipif(not HAS_SCIPY, reason="scipy not installed")
def test_exact_binomial_ci_vs_beta_quantiles():
    for hits, trials in [(3, 10), (50, 200), (1, 7), (199, 200)]:
        lo, hi = exact_binomial_ci(hits, trials, 0.95)
        want_lo = sps.beta.ppf(0.025, hits, trials - hits + 1) if hits > 0 else 0.0
        want_hi = sps.beta.ppf(0.975, hits + 1, trials - hits) if hits < trials else 1.0
        assert lo == pytest.approx(want_lo, abs=1e-7)
        assert hi == pytest.approx(want_hi, abs=1e-7)


def test_mixing_check_exact_petersen():
    rep = expander_mixing_check(petersen_graph(), 2.0)
    assert rep.mode == "exact"
    assert rep.violations == 0
    assert rep.single_max_ratio <= 1.0
    assert rep.pair_max_ratio <= 1.0
    assert rep.pairs_checked == (3 ** 10 - 2 ** 11 + 1) // 2


def test_mixing_check_sampled_matches_exact_flag():
    g = random_regular(64, 8, 2)
    from tracelab import eigen_extremes
    lam = eigen_extremes(g).lambda_abs
    rep = expander_mixing_check(g, lam, mode="sampled", samples=32, seed=1)
    assert rep.mode == "sampled"
    assert rep.violations == 0


def test_mixing_check_flags_true_violation():
    """With lambda understated the lemma must break somewhere."""
    rep = expander_mixing_check(petersen_graph(), 0.4)
    assert rep.violations > 0


def brute_mixing_counts(g):
    """(s, e(S)) for every nonempty S and (s, t, e(S, T)) for every unordered
    disjoint pair, counted edge by edge with ``g.has_edge``."""
    n = g.n
    full = (1 << n) - 1
    sets = {m: [v for v in range(n) if m >> v & 1] for m in range(1, full + 1)}

    def between(s, t):
        return sum(1 for u in s for v in t if g.has_edge(u, v))

    singles = [(len(sv), between(sv, sv) // 2) for sv in sets.values()]
    pairs = []
    for a, sv in sets.items():
        comp = full ^ a
        b = comp
        while b:
            if a < b:
                tv = sets[b]
                pairs.append((len(sv), len(tv), between(sv, tv)))
            b = (b - 1) & comp
    return singles, pairs


@pytest.mark.parametrize("g", [cycle_graph(8), complete_graph(6), random_regular(8, 3, 1),
                               random_regular(8, 4, 2)],
                         ids=["C8", "K6", "rr8-3", "rr8-4"])
def test_mixing_check_exact_matches_brute_force(g):
    n, d = g.n, g.regular_degree
    singles, pairs = brute_mixing_counts(g)
    for lam in (0.4, 1.0, 2.0, 2.9):
        dev = [abs(e - d * s * s / (2.0 * n)) for s, e in singles]
        allow = [lam * s / 2.0 for s, _ in singles]
        devp = [abs(e - d * s * t / n) for s, t, e in pairs]
        allowp = [lam * math.sqrt(s * t) for s, t, _ in pairs]
        rep = expander_mixing_check(g, lam)
        assert rep.singles_checked == len(singles)
        assert rep.pairs_checked == len(pairs)
        assert rep.single_max_ratio == pytest.approx(
            max(x / y for x, y in zip(dev, allow)), rel=1e-12)
        assert rep.pair_max_ratio == pytest.approx(
            max(x / y for x, y in zip(devp, allowp)), rel=1e-12)
        assert rep.violations == (sum(x > y + 1e-9 for x, y in zip(dev, allow))
                                  + sum(x > y + 1e-9 for x, y in zip(devp, allowp)))


@pytest.mark.parametrize("g,lam,seed,want", [
    (cycle_graph(40), 0.5, 7, (1.8, 0.8, 40, 1)),
    (random_regular(64, 8, 2), 2.0, 0, (0.5, 0.375, 48, 0)),
    (random_regular(64, 8, 2), 2.0, 7, (0.375, 0.625, 48, 0)),
    (random_regular(500, 16, 0), 5.0, 0, (0.1226, 0.0872, 64, 0)),
], ids=["C40", "rr64-seed0", "rr64-seed7", "rr500"])
def test_mixing_check_sampled_pinned(g, lam, seed, want):
    """Sampled audits draw from shuffles on stream (seed, 0); the pinned
    figures hold the draws and the bitmask edge counts fixed."""
    rep = expander_mixing_check(g, lam, mode="sampled", samples=8, seed=seed)
    assert rep.pairs_checked == rep.singles_checked
    assert (rep.single_max_ratio, rep.pair_max_ratio, rep.singles_checked,
            rep.violations) == want


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_mixing_check_rejects_nonpositive_lam(lam, mode):
    with pytest.raises(GraphError):
        expander_mixing_check(petersen_graph(), lam, mode=mode, samples=8)


def test_exact_binomial_ci_numpy_sum_takes_the_fsum_side(monkeypatch):
    """A margin of infinity sends every bisection step to the fsum; the
    ends must not move, so the numpy sum never decided a step the other
    way."""
    from tracelab import bounds
    cases = [(hits, trials, level) for trials in (10, 200, 1000)
             for hits in (0, 1, trials // 5, trials - 1, trials)
             for level in (0.5, 0.95, 0.99, 0.999)]
    fast = [exact_binomial_ci(*case) for case in cases]
    monkeypatch.setattr(bounds, "_CDF_MARGIN", math.inf)
    slow = [exact_binomial_ci(*case) for case in cases]
    assert [[x.hex() for x in ends] for ends in fast] == [[x.hex() for x in ends] for ends in slow]
