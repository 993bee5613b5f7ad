"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single scoreboard
line, ``criterion N: PASS|FAIL - detail``, before asserting, so a run
with ``pytest tests/test_acceptance.py -v -s`` always shows the full
twelve-line summary even when something is off.

The statistical checks fix their seeds through the same stream-derivation
helper the command line uses, so reruns are byte-for-byte repeatable.
"""

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from cmgiant import (
    DegreeSequence,
    GiantStatistics,
    Pmf,
    RootedBall,
    bp_ball_distribution,
    build_offspring_spec,
    canonical_code,
    component_decomposition,
    coupled_exploration,
    coupled_pairing,
    disconnected_pair_fraction,
    disjoint_union,
    empirical_ball_distribution,
    giant_statistics,
    pair_half_edges,
    restricted_ball_distribution,
    reuse_bounds,
    sample_distances,
    sample_iid_degrees,
    truncate_explode,
    tv_distance,
    zeta_geq_k,
)
from cmgiant.local_limit import envelope_recursion, simulate_offspring_generations
from cmgiant.expcli import (
    STREAM_ANALYSIS,
    STREAM_BP,
    STREAM_DEGREES,
    STREAM_PAIRING,
    derive_rng,
)
from test_neighborhoods import cheap_invariant, enumerate_balls, root_isomorphic

MIX = Pmf.from_dict({1: 0.5, 3: 0.5})
SUB = Pmf.from_dict({1: 0.8, 3: 0.2})
N = 10**5
N_SEEDS = 20

# closed forms for the half/half mixture of degrees 1 and 3: the survival
# system xi = 1/4 + 3/4 xi^2 has smallest root 1/3, giving cluster density
# zeta = 1 - (1/2) xi - (1/2) xi^3 = 22/27
XI = 1.0 / 3.0
ZETA = 22.0 / 27.0
V1 = 0.5 * (1.0 - XI)
V3 = 0.5 * (1.0 - XI**3)
EDGE = 1.0 - XI**2

DEG1_ROOT_CODE = canonical_code(RootedBall(1, (), (1,)))


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


@dataclass(frozen=True)
class RunRecord:
    stats: GiantStatistics
    sumsq_frac: float
    dpf_50: float
    elapsed: float


def _one_run(pmf, seed):
    t0 = time.perf_counter()
    seq = sample_iid_degrees(pmf, N, derive_rng(seed, STREAM_DEGREES))
    g = pair_half_edges(seq, derive_rng(seed, STREAM_PAIRING))
    cs = component_decomposition(g)
    stats = giant_statistics(cs, g.n)
    sumsq = float(np.sum(cs.sizes.astype(np.float64) ** 2)) / g.n**2
    dpf = disconnected_pair_fraction(cs, 50, g.n)
    return RunRecord(stats, sumsq, dpf, time.perf_counter() - t0)


@pytest.fixture(scope="module")
def super_runs():
    return [_one_run(MIX, seed) for seed in range(N_SEEDS)]


@pytest.fixture(scope="module")
def sub_runs():
    return [_one_run(SUB, seed) for seed in range(N_SEEDS)]


def test_criterion_01_supercritical_giant_size(super_runs):
    mean_gmax = float(np.mean([r.stats.gmax_frac for r in super_runs]))
    slowest = max(r.elapsed for r in super_runs)
    ok = abs(mean_gmax - ZETA) <= 0.01 and slowest <= 60.0
    report(
        1,
        ok,
        f"mean gmax/n {mean_gmax:.5f} vs {ZETA:.5f} +/- 0.01, "
        f"slowest seed {slowest:.2f}s (cap 60s)",
    )
    assert abs(mean_gmax - ZETA) <= 0.01
    assert slowest <= 60.0


def test_criterion_02_giant_structure(super_runs):
    v1 = float(np.mean([r.stats.vk_frac.get(1, 0.0) for r in super_runs]))
    v3 = float(np.mean([r.stats.vk_frac.get(3, 0.0) for r in super_runs]))
    edge = float(np.mean([r.stats.edge_frac for r in super_runs]))
    second = max(r.stats.second_frac for r in super_runs)
    ok = (
        abs(v1 - V1) <= 0.01
        and abs(v3 - V3) <= 0.01
        and abs(edge - EDGE) <= 0.015
        and second < 0.01
    )
    report(
        2,
        ok,
        f"v1 {v1:.5f} vs {V1:.5f}, v3 {v3:.5f} vs {V3:.5f}, "
        f"edges/n {edge:.5f} vs {EDGE:.5f}, largest runner-up {second:.5f}",
    )
    assert abs(v1 - V1) <= 0.01
    assert abs(v3 - V3) <= 0.01
    assert abs(edge - EDGE) <= 0.015
    assert second < 0.01


def test_criterion_03_subcritical_no_giant(sub_runs):
    worst = max(r.stats.gmax_frac for r in sub_runs)
    ok = worst < 0.01
    report(3, ok, f"largest cluster fraction over {N_SEEDS} seeds {worst:.5f} < 0.01")
    assert worst < 0.01


def test_criterion_04_sum_of_squares(super_runs, sub_runs):
    mean_sq = float(np.mean([r.sumsq_frac for r in super_runs]))
    worst_sub = max(r.sumsq_frac for r in sub_runs)
    ok = abs(mean_sq - ZETA**2) <= 0.02 and worst_sub < 0.01
    report(
        4,
        ok,
        f"supercritical sum of squares {mean_sq:.5f} vs {ZETA**2:.5f} +/- 0.02, "
        f"subcritical max {worst_sub:.6f} < 0.01",
    )
    assert abs(mean_sq - ZETA**2) <= 0.02
    assert worst_sub < 0.01


def test_criterion_05_almost_local_condition_and_necessity(super_runs):
    single = super_runs[0].dpf_50
    # two independent halves glued side by side: the condition must fail
    # at every cutoff because the two giants never touch
    halves = []
    for seed in (100, 101):
        seq = sample_iid_degrees(MIX, N // 2, derive_rng(seed, STREAM_DEGREES))
        halves.append(pair_half_edges(seq, derive_rng(seed, STREAM_PAIRING)))
    gu = disjoint_union(halves[0], halves[1])
    cu = component_decomposition(gu)
    union_gmax = giant_statistics(cu, gu.n).gmax_frac
    union_dpf = [disconnected_pair_fraction(cu, k, gu.n) for k in range(1, 101)]
    ok = (
        single <= 0.01
        and min(union_dpf) >= 0.25
        and abs(union_gmax - ZETA / 2.0) <= 0.02
    )
    report(
        5,
        ok,
        f"single-graph split-pair fraction at k=50 {single:.5f} <= 0.01; "
        f"union min over k<=100 {min(union_dpf):.4f} >= 0.25, "
        f"union gmax/n {union_gmax:.4f} vs {ZETA / 2.0:.4f} +/- 0.02",
    )
    assert single <= 0.01
    assert min(union_dpf) >= 0.25
    assert abs(union_gmax - ZETA / 2.0) <= 0.02


def test_criterion_06_local_convergence_and_giant_local_limit():
    seq = sample_iid_degrees(MIX, N, derive_rng(0, STREAM_DEGREES))
    g = pair_half_edges(seq, derive_rng(0, STREAM_PAIRING))
    spec = build_offspring_spec(MIX)
    emp = empirical_ball_distribution(g, 2)
    bp = bp_ball_distribution(spec, 2, 10**6, derive_rng(0, STREAM_BP))
    tv = tv_distance(emp, bp)
    cs = component_decomposition(g)
    giant_deg1 = restricted_ball_distribution(g, 0, cs).giant.get(DEG1_ROOT_CODE, 0.0)
    ok = tv < 0.05 and abs(giant_deg1 - V1) <= 0.01
    report(
        6,
        ok,
        f"TV(radius-2 census, branching law) {tv:.4f} < 0.05; "
        f"degree-1 mass inside the giant {giant_deg1:.5f} vs {V1:.5f} +/- 0.01",
    )
    assert tv < 0.05
    assert abs(giant_deg1 - V1) <= 0.01


def test_criterion_07_exploration_reuse_bounds():
    m = int(N**0.4)
    reuses_he, reuses_v, bounds_he, bounds_v = [], [], [], []
    clean = 0
    for seed in range(1000):
        seq = sample_iid_degrees(MIX, N, derive_rng(seed, STREAM_DEGREES))
        rng = derive_rng(seed, STREAM_ANALYSIS)
        root = int(rng.integers(0, seq.n))
        trace = coupled_exploration(seq, root, m, rng)
        reuses_he.append(trace.half_edge_reuses)
        reuses_v.append(trace.vertex_reuses)
        clean += trace.first_divergence is None
        b = reuse_bounds(seq.total_degree, seq.max_degree, m)
        bounds_he.append(b.half_edge)
        bounds_v.append(b.vertex)
    he_mean, he_bound = float(np.mean(reuses_he)), float(np.mean(bounds_he))
    v_mean, v_bound = float(np.mean(reuses_v)), float(np.mean(bounds_v))
    clean_frac = clean / 1000.0
    clean_floor = 1.0 - 3.0 * (he_bound + v_bound)
    ok = (
        he_mean <= 1.1 * he_bound
        and v_mean <= 1.1 * v_bound
        and clean_frac >= clean_floor
    )
    report(
        7,
        ok,
        f"half-edge reuses {he_mean:.4f} <= {1.1 * he_bound:.4f}, "
        f"vertex reuses {v_mean:.4f} <= {1.1 * v_bound:.4f}, "
        f"divergence-free {clean_frac:.3f} >= {clean_floor:.3f}",
    )
    assert he_mean <= 1.1 * he_bound
    assert v_mean <= 1.1 * v_bound
    assert clean_frac >= clean_floor


def test_criterion_08_truncation_coupling_fuzz():
    models = [
        MIX,
        SUB,
        Pmf.from_dict({2: 0.3, 5: 0.4, 8: 0.3}),
        Pmf.from_dict({1: 0.35, 4: 0.3, 12: 0.35}),
    ]
    caps = (2, 5, 10)
    violations = 0
    witness = ""
    for i in range(1000):
        pmf = models[i % len(models)]
        b = caps[i % len(caps)]
        n = 50 + (i % 8) * 50
        seq = sample_iid_degrees(pmf, n, derive_rng(i, STREAM_DEGREES))
        emap = truncate_explode(seq, b)
        g, gp = coupled_pairing(emap, derive_rng(i, STREAM_PAIRING))
        ok_a = np.array_equal(
            gp.degrees()[:n], np.minimum(seq.degrees, b)
        ) and bool(np.all(gp.degrees()[n:] == 1))
        ok_b = gp.num_half_edges == g.num_half_edges
        labels = component_decomposition(g).labels
        labels_p = component_decomposition(gp).labels
        ok_c = True
        for c in np.unique(labels_p[:n]):
            members = np.flatnonzero(labels_p[:n] == c)
            if np.unique(labels[members]).size != 1:
                ok_c = False
                break
        if not (ok_a and ok_b and ok_c):
            violations += 1
            if not witness:
                witness = f" (first at draw {i}: a={ok_a} b={ok_b} c={ok_c})"
    ok = violations == 0
    report(8, ok, f"{violations} violations over 1000 coupled draws{witness}")
    assert violations == 0


def test_criterion_09_typical_distances():
    spec = build_offspring_spec(MIX)
    gaps = []
    headline = {}
    for n in (10**3, 10**4, 10**5):
        finite = []
        attempted = 0
        for seed in range(N_SEEDS):
            seq = sample_iid_degrees(MIX, n, derive_rng(seed, STREAM_DEGREES))
            g = pair_half_edges(seq, derive_rng(seed, STREAM_PAIRING))
            ds = sample_distances(g, 1000, derive_rng(seed, STREAM_ANALYSIS))
            finite.extend(ds.finite_distances)
            attempted += ds.pairs_attempted
        ratio = float(np.mean(finite)) / (math.log(n) / math.log(spec.nu))
        gaps.append(abs(ratio - 1.0))
        if n == N:
            headline["ratio"] = ratio
            headline["finite_frac"] = len(finite) / attempted
    monotone = all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
    ok = (
        0.75 <= headline["ratio"] <= 1.25
        and abs(headline["finite_frac"] - ZETA**2) <= 0.02
        and monotone
    )
    report(
        9,
        ok,
        f"mean distance ratio {headline['ratio']:.4f} in [0.75, 1.25], "
        f"finite fraction {headline['finite_frac']:.4f} vs {ZETA**2:.4f} +/- 0.02, "
        f"gaps {gaps[0]:.3f} >= {gaps[1]:.3f} >= {gaps[2]:.3f}",
    )
    assert 0.75 <= headline["ratio"] <= 1.25
    assert abs(headline["finite_frac"] - ZETA**2) <= 0.02
    assert monotone


def test_criterion_10_all_degree_two_non_concentration():
    fractions = []
    for seed in range(50):
        seq = DegreeSequence(np.full(10**4, 2, dtype=np.int64))
        g = pair_half_edges(seq, derive_rng(seed, STREAM_PAIRING))
        cs = component_decomposition(g)
        fractions.append(giant_statistics(cs, g.n).gmax_frac)
    spread = float(np.std(fractions, ddof=1))
    ok = spread > 0.05
    report(
        10,
        ok,
        f"stddev of gmax/n over 50 all-degree-2 graphs {spread:.4f} > 0.05",
    )
    assert spread > 0.05


def test_criterion_11_oracle_equivalences():
    # split-pair fraction against the O(n^2) double loop, exact equality
    dpf_exact = True
    for seed, n in ((0, 200), (1, 137), (2, 64), (3, 200)):
        seq = sample_iid_degrees(MIX, n, derive_rng(seed, STREAM_DEGREES))
        g = pair_half_edges(seq, derive_rng(seed, STREAM_PAIRING))
        cs = component_decomposition(g)
        for k in (1, 2, 3, 10, 50):
            big = {c for c, s in enumerate(cs.sizes.tolist()) if s >= k}
            count = 0
            for u in range(n):
                for v in range(n):
                    cu, cv = int(cs.labels[u]), int(cs.labels[v])
                    if cu != cv and cu in big and cv in big:
                        count += 1
            if disconnected_pair_fraction(cs, k, g.n) != count / (n * n):
                dpf_exact = False

    # canonical codes against exhaustive root-preserving isomorphism on
    # every rooted multigraph with at most 5 vertices (and a smaller pass
    # with stub marks switched on)
    balls = enumerate_balls(max_n=5, max_edges=6, max_stub=0)
    balls += enumerate_balls(max_n=3, max_edges=3, max_stub=2)
    groups = {}
    for b in balls:
        groups.setdefault(canonical_code(b), []).append(b)
    codes_ok = True
    for members in groups.values():
        rep = members[0]
        if not all(root_isomorphic(rep, other) for other in members[1:]):
            codes_ok = False
    buckets = {}
    for members in groups.values():
        buckets.setdefault(cheap_invariant(members[0]), []).append(members[0])
    for reps in buckets.values():
        for b1, b2 in itertools.combinations(reps, 2):
            if root_isomorphic(b1, b2):
                codes_ok = False

    # survival-tail values against Monte Carlo, three standard errors
    spec = build_offspring_spec(MIX)
    samples = 30000
    tails_ok = True
    for k in range(1, 11):
        exact = zeta_geq_k(spec, k)
        mc = zeta_geq_k(
            spec, k, mode="monte_carlo", rng=derive_rng(k, STREAM_BP), samples=samples
        )
        se = math.sqrt(max(mc * (1.0 - mc), 1.0 / samples) / samples)
        if abs(exact - mc) > 3.0 * se:
            tails_ok = False

    ok = dpf_exact and codes_ok and tails_ok
    report(
        11,
        ok,
        f"split-pair brute force exact: {dpf_exact}; "
        f"codes vs isomorphism on {len(balls)} balls ({len(groups)} classes): {codes_ok}; "
        f"survival tails within 3 SE: {tails_ok}",
    )
    assert dpf_exact
    assert codes_ok
    assert tails_ok


def test_criterion_12_envelope_sandwich():
    spec = build_offspring_spec(MIX)
    b0, alpha, k_max = 100, 0.6, 15
    env = envelope_recursion(float(b0), spec.nu, alpha, k_max)
    rng = derive_rng(0, STREAM_BP)
    inside = 0
    runs = 1000
    for _ in range(runs):
        sizes = simulate_offspring_generations(spec, b0, k_max, rng).generation_sizes
        inside += all(
            env.under[k] <= sizes[k] <= env.over[k] for k in range(len(env.under))
        )
    rate = inside / runs
    growth = env.over[k_max] / (b0 * spec.nu**k_max)
    product = 1.0
    for j in range(1, k_max + 1):
        product *= 1.0 + (b0 * spec.nu ** (j - 1)) ** (alpha - 1.0)
    ok = rate >= 0.95 and growth <= product + 1e-12
    report(
        12,
        ok,
        f"containment rate {rate:.4f} (needs >= 0.95), "
        f"top envelope growth {growth:.4f} <= recomputed product {product:.4f}",
    )
    assert growth <= product + 1e-12
    assert rate >= 0.95
