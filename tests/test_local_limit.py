import json
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cmgiant import (
    DegenerateDegreeTwoError,
    Pmf,
    build_offspring_spec,
    envelope_recursion,
    estimate_cond_limit,
    simulate_unimodular_bp,
    theoretical_giant,
    zeta_geq_k,
)
from cmgiant.local_limit import (
    EXACT_PROGENY_MAX_K,
    simulate_offspring_generations,
)
from oracles import offspring_generations_loop, progeny_law_enumerated, unimodular_bp_loop
from strategies import pmf_dicts, pmfs


def spec_of(masses):
    return build_offspring_spec(Pmf.from_dict(masses))


def test_mixture_spec_constants():
    # worked out by hand: E[D] = 2, forward law {0: 1/4, 2: 3/4},
    # extinction solves 3x^2/4 - x + 1/4 = 0 at x = 1/3
    spec = spec_of({1: 0.5, 3: 0.5})
    assert spec.shifted_pmf.as_dict() == pytest.approx({0: 0.25, 2: 0.75})
    assert spec.nu == pytest.approx(1.5)
    assert spec.sigma2 == pytest.approx(0.75)
    assert spec.xi == pytest.approx(1 / 3, abs=1e-10)
    assert spec.zeta == pytest.approx(22 / 27, abs=1e-10)


def test_mixture_giant_limits():
    limits = theoretical_giant(spec_of({1: 0.5, 3: 0.5}))
    assert limits.zeta == pytest.approx(22 / 27, abs=1e-10)
    assert limits.vk_limit[1] == pytest.approx(1 / 3, abs=1e-10)
    assert limits.vk_limit[3] == pytest.approx(13 / 27, abs=1e-10)
    assert limits.edge_limit == pytest.approx(8 / 9, abs=1e-10)


def test_subcritical_mixture():
    spec = spec_of({1: 0.8, 3: 0.2})
    assert spec.nu == pytest.approx(6 / 7)
    assert spec.xi == pytest.approx(1.0, abs=1e-9)
    assert spec.zeta == pytest.approx(0.0, abs=1e-9)
    limits = theoretical_giant(spec)
    assert limits.edge_limit == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize(
    "masses",
    [
        {1: 1e-6, 2: 0.999999},
        {1: 1e-13, 2: 1 - 1e-13},
        {1: 0.75, 3: 0.25},
        {1: 0.8, 2: 0.1, 4: 0.1},
        {1: 0.5, 2: 0.5},
    ],
)
def test_extinction_is_certain_at_and_below_criticality(masses):
    # nu <= 1 and a forward law that is not a point mass at 1: the process
    # dies out almost surely, so the limits are exact zeros
    spec = spec_of(masses)
    assert spec.nu <= 1.0
    assert spec.xi == 1.0
    assert spec.zeta == 0.0
    limits = theoretical_giant(spec)
    assert limits.zeta == limits.edge_limit == 0.0
    assert set(limits.vk_limit.values()) == {0.0}


def test_three_regular_spec():
    spec = spec_of({3: 1.0})
    assert spec.shifted_pmf.as_dict() == {2: 1.0}
    assert spec.nu == 2.0
    assert spec.xi == 0.0
    assert spec.zeta == 1.0


def test_all_degree_one_spec():
    spec = spec_of({1: 1.0})
    assert spec.shifted_pmf.as_dict() == {0: 1.0}
    assert spec.nu == 0.0
    assert spec.xi == pytest.approx(1.0)
    assert spec.zeta == pytest.approx(0.0)


def test_degenerate_degree_two_rejected():
    with pytest.raises(DegenerateDegreeTwoError):
        spec_of({2: 1.0})


def test_mass_at_zero_rejected():
    with pytest.raises(ValueError):
        spec_of({0: 0.5, 2: 0.5})


def test_spec_json_roundtrip():
    spec = spec_of({1: 0.5, 3: 0.5})
    payload = json.loads(spec.to_json())
    assert payload["nu"] == spec.nu
    assert payload["xi"] == spec.xi
    assert payload["zeta"] == spec.zeta
    assert payload["root_pmf"] == {"1": 0.5, "3": 0.5}


@given(pmfs())
def test_xi_is_a_fixed_point(pmf):
    spec = build_offspring_spec(pmf)
    shifted = spec.shifted_pmf
    g_of_xi = sum(
        p * spec.xi**k for k, p in zip(shifted.support, shifted.probabilities)
    )
    assert abs(g_of_xi - spec.xi) < 1e-10
    assert 0.0 <= spec.xi <= 1.0


@given(pmfs())
def test_supercritical_iff_xi_below_one(pmf):
    spec = build_offspring_spec(pmf)
    assume(abs(spec.nu - 1.0) > 0.01)
    if spec.nu > 1.0:
        assert spec.xi < 1.0 - 1e-4
        assert spec.zeta > 0.0
    else:
        assert spec.xi > 1.0 - 1e-9
        assert spec.zeta < 1e-8


def test_progeny_tail_trivial_threshold():
    assert zeta_geq_k(spec_of({1: 0.5, 3: 0.5}), 1) == 1.0


def test_progeny_tail_all_degree_one():
    # the whole tree is one root plus one child, total 2 exactly
    spec = spec_of({1: 1.0})
    assert zeta_geq_k(spec, 2) == pytest.approx(1.0, abs=1e-12)
    assert zeta_geq_k(spec, 3) == pytest.approx(0.0, abs=1e-12)


def test_progeny_tail_mixture_at_three():
    # only a total of 2 is avoidable: root spawns one leaf with prob
    # 1/2 * 1/4, so the tail at 3 is exactly 7/8
    spec = spec_of({1: 0.5, 3: 0.5})
    assert zeta_geq_k(spec, 3) == pytest.approx(7 / 8, abs=1e-12)


def test_progeny_tail_monotone_and_above_zeta():
    spec = spec_of({1: 0.5, 3: 0.5})
    values = [zeta_geq_k(spec, k) for k in range(1, 31)]
    for a, b in zip(values, values[1:]):
        assert a >= b - 1e-12
    assert values[-1] >= spec.zeta


def test_progeny_tail_exact_matches_monte_carlo():
    spec = spec_of({1: 0.5, 3: 0.5})
    samples = 30000
    rng = np.random.default_rng(42)
    for k in range(1, 11):
        exact = zeta_geq_k(spec, k)
        mc = zeta_geq_k(spec, k, mode="monte_carlo", rng=rng, samples=samples)
        se = math.sqrt(max(exact * (1 - exact), 1e-12) / samples)
        assert abs(mc - exact) <= 3 * se + 1e-9


def test_progeny_tail_argument_errors():
    spec = spec_of({1: 0.5, 3: 0.5})
    with pytest.raises(ValueError):
        zeta_geq_k(spec, 0)
    with pytest.raises(ValueError):
        zeta_geq_k(spec, 31)
    with pytest.raises(ValueError):
        zeta_geq_k(spec, 5, mode="monte_carlo")
    with pytest.raises(ValueError):
        zeta_geq_k(spec, 5, mode="bogus")


@given(pmf_dicts())
def test_exact_progeny_tail_matches_the_enumeration_oracle(masses):
    spec = spec_of(masses)
    law = progeny_law_enumerated(spec, 6)
    for k in range(1, 8):
        assert zeta_geq_k(spec, k) == pytest.approx(1.0 - sum(law[:k]), abs=1e-12)


def _power_law(tau, kmax):
    weights = {k: k**-tau for k in range(1, kmax + 1)}
    total = sum(weights.values())
    return {k: w / total for k, w in weights.items()}


# exact-mode tails at k = 2, 5, 17, 30, recorded from the truncated
# composition H <- s G(H) that exact mode ran before the hitting-time sum;
# the two agree in every bit for k = 1..30 on these laws
@pytest.mark.parametrize(
    "masses, bits",
    [
        ({1: 0.5, 3: 0.5}, ["0x1.0000000000000p+0", "0x1.b000000000000p-1", "0x1.a1ebde8000000p-1", "0x1.a140f82a01df4p-1"]),
        ({1: 0.4, 4: 0.3, 10: 0.3}, ["0x1.0000000000000p+0", "0x1.ee30f9525d7eep-1", "0x1.ee25a946dbd14p-1", "0x1.ee25a946dad7ap-1"]),
        (_power_law(2.5, 1000), ["0x1.0000000000000p+0", "0x1.3f73dfd5fa807p-1", "0x1.32b606192a4dcp-1", "0x1.32a048fe001cap-1"]),
    ],
    ids=["1-3", "1-4-10", "tau-2.5"],
)
def test_exact_progeny_tail_bits_are_pinned(masses, bits):
    spec = spec_of(masses)
    assert [zeta_geq_k(spec, k).hex() for k in (2, 5, 17, 30)] == bits


def test_bp_all_degree_one_run():
    run = simulate_unimodular_bp(spec_of({1: 1.0}), 10, 10**6, np.random.default_rng(0))
    assert run.generation_sizes == (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    assert run.total == 2
    assert not run.truncated


def test_bp_three_regular_doubles():
    run = simulate_unimodular_bp(spec_of({3: 1.0}), 5, 10**6, np.random.default_rng(0))
    assert run.generation_sizes == (1, 3, 6, 12, 24, 48)
    assert run.total == 94


def test_bp_cap_truncates():
    run = simulate_unimodular_bp(spec_of({3: 1.0}), 50, 100, np.random.default_rng(0))
    assert run.truncated
    assert run.total >= 100


def test_bp_extinction_frequency_matches_xi():
    # survival of the root process happens with probability zeta = 22/27
    spec = spec_of({1: 0.5, 3: 0.5})
    rng = np.random.default_rng(7)
    runs = 100000
    died = 0
    for _ in range(runs):
        run = simulate_unimodular_bp(spec, 60, 10000, rng)
        died += not run.truncated
    assert abs(died / runs - 5 / 27) <= 0.01


def test_forward_generations_three_regular():
    spec = spec_of({3: 1.0})
    run = simulate_offspring_generations(spec, 5, 4, np.random.default_rng(0))
    assert run.generation_sizes == (5, 10, 20, 40, 80)


def test_forward_generations_mean_growth():
    spec = spec_of({1: 0.5, 3: 0.5})
    rng = np.random.default_rng(8)
    firsts = [
        simulate_offspring_generations(spec, 100, 1, rng).generation_sizes[1]
        for _ in range(200)
    ]
    assert abs(np.mean(firsts) / 100 - spec.nu) <= 0.05


def test_cond_limit_three_regular_boundaries():
    # generation sizes are deterministic (1, 3, 6, ...), so the mismatch
    # frequencies are 0/1 depending on where the cutoffs sit
    spec = spec_of({3: 1.0})
    rng = np.random.default_rng(0)
    est = estimate_cond_limit(spec, k=2, r=1, r_k=4, samples=200, rng=rng)
    assert est.big_cluster_small_boundary == 1.0
    assert est.small_cluster_big_boundary == 0.0
    est = estimate_cond_limit(spec, k=2, r=1, r_k=3, samples=200, rng=rng)
    assert est.big_cluster_small_boundary == 0.0
    assert est.small_cluster_big_boundary == 0.0
    est = estimate_cond_limit(spec, k=2, r=2, r_k=6, samples=200, rng=rng)
    assert est.big_cluster_small_boundary == 0.0


def test_cond_limit_all_degree_one():
    spec = spec_of({1: 1.0})
    est = estimate_cond_limit(spec, k=3, r=1, r_k=2, samples=500, rng=np.random.default_rng(1))
    assert est.big_cluster_small_boundary == 0.0
    assert est.small_cluster_big_boundary == 0.0


def test_cond_limit_cross_checks_progeny_tail():
    # with r = 0 and r_k = 1 the boundary test always passes, so the
    # small-cluster frequency is just P(total < k)
    spec = spec_of({1: 0.5, 3: 0.5})
    k = 10
    samples = 20000
    est = estimate_cond_limit(spec, k=k, r=0, r_k=1, samples=samples, rng=np.random.default_rng(2))
    expected = 1.0 - zeta_geq_k(spec, k)
    se = math.sqrt(expected * (1 - expected) / samples)
    assert est.big_cluster_small_boundary == 0.0
    assert abs(est.small_cluster_big_boundary - expected) <= 4 * se


# Outputs of the per-tree samplers recorded before the lockstep rewrite; the
# single-tree streams must not change.
PINNED_LAW = {1: 0.4, 4: 0.3, 10: 0.3}
PINNED_BP = [
    ((1, 1, 9, 75), 86, True), ((1, 10, 84), 95, True), ((1, 10, 69), 80, True),
    ((1, 4, 30, 201), 236, True), ((1, 4, 24, 132), 161, True), ((1, 1, 9, 63), 74, True),
    ((1, 1, 3, 21), 26, False), ((1, 10, 75), 86, True), ((1, 4, 24, 189), 218, True),
    ((1, 1, 9, 45), 56, False), ((1, 1, 0, 0), 2, False), ((1, 4, 36, 246), 287, True),
]
PINNED_FORWARD = [
    ((1, 3, 27, 195), 226, False), ((2, 18, 99, 705), 824, False), ((1, 9, 69), 79, True),
    ((5, 27, 204), 236, True), ((1, 3, 12, 72), 88, False), ((1, 3, 27, 168), 199, False),
    ((1, 9, 57, 372), 439, False), ((1, 9, 69, 459), 538, False),
]


def as_tuple(run):
    return run.generation_sizes, run.total, run.truncated


def test_single_tree_streams_are_pinned():
    spec = spec_of(PINNED_LAW)
    rng = np.random.default_rng(11)
    runs = [as_tuple(simulate_unimodular_bp(spec, 3, 60, rng)) for _ in range(12)]
    assert runs == PINNED_BP
    assert all(type(x) is int for sizes, total, _ in runs for x in (*sizes, total))
    rng = np.random.default_rng(12)
    starts = [(1, None), (2, None), (1, 40), (5, 100), (1, None), (1, None), (1, None), (1, None)]
    runs = [as_tuple(simulate_offspring_generations(spec, b0, 3, rng, cap=cap)) for b0, cap in starts]
    assert runs == PINNED_FORWARD


@given(
    pmf_dicts(),
    st.integers(0, 8),
    st.integers(1, 200),
    st.integers(1, 50),
    st.one_of(st.none(), st.integers(1, 200)),
    st.integers(0, 2**32 - 1),
)
def test_single_tree_samplers_match_the_reference_loops(masses, generations, cap, b0, forward_cap, seed):
    # several trees of each sampler from one generator: each run must leave
    # the stream where the reference loop leaves it
    spec = spec_of(masses)
    mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):
        runs = [
            (as_tuple(simulate_unimodular_bp(spec, generations, cap, mine)),
             unimodular_bp_loop(spec, generations, cap, ref)),
            (as_tuple(simulate_offspring_generations(spec, b0, generations, mine, cap=forward_cap)),
             offspring_generations_loop(spec, b0, generations, ref, cap=forward_cap)),
        ]
        for run, expected in runs:
            assert run == expected
            sizes, total, _ = run
            assert all(type(x) is int for x in (*sizes, total))
    assert mine.random() == ref.random()


@pytest.mark.parametrize("seed", range(5))
def test_root_draws_match_rng_choice(seed):
    # the spec's two laws draw as rng.choice does; the forward law's support
    # starts at 0, a value no degree law takes
    spec = spec_of(PINNED_LAW)
    mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for law in (spec.root_pmf, spec.shifted_pmf):
        support, probs = np.array(law.support), np.array(law.probabilities)
        assert law.sample(None, mine) == ref.choice(support, p=probs)
        assert np.array_equal(law.sample(1000, mine), ref.choice(support, size=1000, p=probs))
    assert mine.random() == ref.random()


Z = 5


@given(pmf_dicts(), st.integers(1, EXACT_PROGENY_MAX_K), st.integers(0, 2**32 - 1))
def test_lockstep_estimators_match_exact_progeny_tail(masses, k, seed):
    spec = spec_of(masses)
    samples = 4000
    exact = zeta_geq_k(spec, k)
    se = math.sqrt(max(exact * (1 - exact), 1e-12) / samples)
    mc = zeta_geq_k(spec, k, mode="monte_carlo", rng=np.random.default_rng(seed), samples=samples)
    assert abs(mc - exact) <= Z * se + 1e-9
    # with r = 0 and r_k = 1 every tree is fat, so the small-cluster
    # frequency estimates P(total < k)
    est = estimate_cond_limit(spec, k, 0, 1, samples, np.random.default_rng(seed + 1))
    assert est.big_cluster_small_boundary == 0.0
    assert abs(est.small_cluster_big_boundary - (1 - exact)) <= Z * se + 1e-9


def test_lockstep_estimators_terminate_on_a_subcritical_law():
    # nu = 6/7: every tree dies out, so no threshold is ever reached and
    # the loops end only because the live set empties
    spec = spec_of({1: 0.8, 3: 0.2})
    rng = np.random.default_rng(3)
    assert zeta_geq_k(spec, 10**9, mode="monte_carlo", rng=rng, samples=5000) == 0.0
    est = estimate_cond_limit(spec, k=10**9, r=10**6, r_k=1, samples=5000, rng=rng)
    assert est.big_cluster_small_boundary == 0.0
    assert est.small_cluster_big_boundary == 0.0


# Per argument, every estimator call that must reject its bad value.
BAD_ESTIMATOR_ARGUMENTS = {
    "samples": [
        lambda spec, rng: zeta_geq_k(spec, 5, mode="monte_carlo", rng=rng, samples=0),
        lambda spec, rng: estimate_cond_limit(spec, k=5, r=1, r_k=2, samples=0, rng=rng),
    ],
    "k": [
        lambda spec, rng: zeta_geq_k(spec, 0, mode="monte_carlo", rng=rng, samples=10),
        lambda spec, rng: estimate_cond_limit(spec, k=0, r=1, r_k=2, samples=10, rng=rng),
    ],
    "r": [lambda spec, rng: estimate_cond_limit(spec, k=5, r=-1, r_k=2, samples=10, rng=rng)],
    "r_k": [lambda spec, rng: estimate_cond_limit(spec, k=5, r=1, r_k=0, samples=10, rng=rng)],
}


@pytest.mark.parametrize("name", BAD_ESTIMATOR_ARGUMENTS)
def test_estimators_reject_bad_arguments(name):
    # the error names the argument, and no draw is made first
    spec = spec_of({1: 0.5, 3: 0.5})
    for call in BAD_ESTIMATOR_ARGUMENTS[name]:
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=rf"\b{name}="):
            call(spec, rng)
        assert rng.random() == np.random.default_rng(0).random()


# Monte Carlo zeta_geq_k at samples=3000, k = 1, 2, 5, 30, 50 from one
# generator per law, as success counts, then the generator's next uniform.
# Recorded before the two estimators shared one lockstep loop; the r = 0
# loop must draw exactly as the zeta_geq_k loop did.
PINNED_ZETA = [
    ({1: 0.4, 4: 0.3, 10: 0.3}, [3000, 3000, 2897, 2902, 2897], 0.6701287839035561),
    ({1: 0.5, 3: 0.5}, [3000, 3000, 2538, 2452, 2435], 0.35681424157021635),
    ({1: 0.8, 3: 0.2}, [3000, 3000, 1173, 253, 125], 0.9193055289705812),
    ({3: 1.0}, [3000, 3000, 3000, 3000, 3000], 0.9931813233694124),
]
# estimate_cond_limit at samples=3000 for (k, r, r_k) = (3, 0, 1), (5, 1, 2),
# (30, 2, 5), (50, 3, 5) from one generator per law, as counts of the two
# mismatch events, then the generator's next uniform. Recorded with the
# shared lockstep loop, which draws no generation that it never reads.
PINNED_COND = [
    ({1: 0.4, 4: 0.3, 10: 0.3}, [(0, 105), (1109, 0), (308, 0), (1, 0)], 0.1141065628927721),
    ({1: 0.5, 3: 0.5}, [(0, 352), (1087, 26), (1746, 0), (1342, 0)], 0.8614259685074018),
    ({1: 0.8, 3: 0.2}, [(0, 1376), (683, 111), (231, 22), (114, 43)], 0.3853022410464858),
    ({1: 0.2, 2: 0.3, 5: 0.5}, [(0, 30), (575, 7), (664, 0), (118, 0)], 0.2400303309224069),
]


@pytest.mark.parametrize("index", range(len(PINNED_ZETA)))
def test_lockstep_zeta_stream_is_pinned(index):
    masses, counts, next_uniform = PINNED_ZETA[index]
    spec = spec_of(masses)
    rng = np.random.default_rng(100 + index)
    values = [zeta_geq_k(spec, k, mode="monte_carlo", rng=rng, samples=3000) for k in (1, 2, 5, 30, 50)]
    assert values == [c / 3000 for c in counts]
    assert rng.random() == next_uniform


@pytest.mark.parametrize("index", range(len(PINNED_COND)))
def test_lockstep_cond_limit_stream_is_pinned(index):
    masses, counts, next_uniform = PINNED_COND[index]
    spec = spec_of(masses)
    rng = np.random.default_rng(200 + index)
    values = []
    for k, r, r_k in ((3, 0, 1), (5, 1, 2), (30, 2, 5), (50, 3, 5)):
        est = estimate_cond_limit(spec, k, r, r_k, 3000, rng)
        values.append((est.big_cluster_small_boundary, est.small_cluster_big_boundary))
    assert values == [(a / 3000, b / 3000) for a, b in counts]
    assert rng.random() == next_uniform


def test_envelope_first_step():
    env = envelope_recursion(10, 1.5, 0.6, 1)
    assert env.over[1] == pytest.approx(15 + 10**0.6)
    assert env.under[1] == pytest.approx(15 - 10**0.6)
    assert env.over[0] == env.under[0] == 10.0


def growth_product(b0, nu, alpha, K):
    """A = prod_{k<K} (1 + (b0 nu^k)^(alpha-1)), so over[K] <= A b0 nu^K."""
    product = 1.0
    for k in range(K):
        product *= 1.0 + (b0 * nu**k) ** (alpha - 1.0)
    return product


def test_envelope_ordering_and_growth_bound():
    env = envelope_recursion(50, 1.5, 0.6, 15)
    for lo, hi in zip(env.under, env.over):
        assert lo <= hi
    a = growth_product(50, 1.5, 0.6, 15)
    for k, hi in enumerate(env.over):
        assert hi <= a * 50 * 1.5**k + 1e-9


def test_envelope_validation():
    with pytest.raises(ValueError):
        envelope_recursion(10, 1.0, 0.6, 5)
    with pytest.raises(ValueError):
        envelope_recursion(10, 1.5, 0.5, 5)
    with pytest.raises(ValueError):
        envelope_recursion(10, 1.5, 1.0, 5)
    with pytest.raises(ValueError):
        envelope_recursion(0, 1.5, 0.6, 5)
    with pytest.raises(ValueError):
        envelope_recursion(10, 1.5, 0.6, -1)


@given(
    st.floats(min_value=2.0, max_value=1000.0),
    st.floats(min_value=1.05, max_value=3.0),
    st.floats(min_value=0.55, max_value=0.95),
    st.integers(min_value=0, max_value=20),
)
def test_envelope_fuzz_sandwich(b0, nu, alpha, K):
    env = envelope_recursion(b0, nu, alpha, K)
    assert len(env.over) == K + 1
    a = growth_product(b0, nu, alpha, K)
    for k in range(K + 1):
        assert env.under[k] <= env.over[k]
        assert env.over[k] <= a * b0 * nu**k * (1 + 1e-12)
