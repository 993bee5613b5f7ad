import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cmgiant import (
    DegreeSequence,
    Pmf,
    empirical_distribution,
    sample_iid_degrees,
)
from strategies import degree_lists, pmf_dicts


def test_pmf_basic_moments():
    p = Pmf.from_dict({1: 0.5, 3: 0.5})
    assert p.mean() == 2.0
    assert p.second_moment() == 5.0
    assert p.variance() == 1.0
    assert p.mass(1) == 0.5
    assert p.mass(2) == 0.0
    assert p.min_value() == 1


def test_pmf_rejects_bad_input():
    with pytest.raises(ValueError):
        Pmf((1, 1), (0.5, 0.5))
    with pytest.raises(ValueError):
        Pmf((3, 1), (0.5, 0.5))
    with pytest.raises(ValueError):
        Pmf((1, 2), (0.7, 0.7))
    with pytest.raises(ValueError):
        Pmf((1,), (-1.0,))
    with pytest.raises(ValueError):
        Pmf((), ())
    with pytest.raises(ValueError):
        Pmf((-1, 2), (0.5, 0.5))


def test_pmf_dict_roundtrip():
    d = {3: 0.25, 1: 0.75}
    p = Pmf.from_dict(d)
    assert p.support == (1, 3)
    assert p.as_dict() == {1: 0.75, 3: 0.25}


@given(
    pmf_dicts(),
    st.one_of(st.sampled_from([None, 0, 1]), st.integers(2, 2000)),
    st.integers(0, 2**32 - 1),
)
def test_pmf_sample_matches_rng_choice(masses, size, seed):
    # Pmf.sample is the one draw rule of every degree law: it must draw what
    # rng.choice draws, value for value, and leave the generator where it would
    pmf = Pmf.from_dict(masses)
    mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = pmf.sample(size, mine)
    expected = ref.choice(np.array(pmf.support), size, p=np.array(pmf.probabilities))
    if size is None:
        assert type(drawn) is int and drawn == expected
    else:
        assert drawn.dtype == np.int64 and np.array_equal(drawn, expected)
    assert mine.random() == ref.random()


@given(
    st.integers(1, 200).flatmap(
        lambda k: st.lists(st.sampled_from([0.0, 1e-9, 0.3, 1.0, 7.0]), min_size=k, max_size=k)
    ).filter(any),
    st.sampled_from([1, 2, 50, 3000]),
    st.integers(0, 2**32 - 1),
)
@example([0.0] * 31 + [1.0, 1.0], 3000, 0)  # 33 values: searchsorted
@example([0.0] * 30 + [1.0, 1.0], 3000, 0)  # 32 values, zero mass up front: comparisons
def test_pmf_sample_matches_rng_choice_on_wide_supports(weights, size, seed):
    # supports of up to _SCAN_MAX values draw by comparisons, wider ones by
    # searchsorted; zero-mass points repeat a cdf entry, which neither rule
    # may ever draw
    total = sum(weights)
    pmf = Pmf(tuple(range(0, 2 * len(weights), 2)), tuple(w / total for w in weights))
    mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = pmf.sample(size, mine)
    expected = ref.choice(np.array(pmf.support), size, p=np.array(pmf.probabilities))
    assert drawn.dtype == np.int64 and np.array_equal(drawn, expected)
    assert mine.random() == ref.random()


def test_degree_sequence_validation():
    seq = DegreeSequence(np.array([1, 1, 2, 2]))
    assert seq.n == 4
    assert seq.total_degree == 6
    assert seq.max_degree == 2
    with pytest.raises(ValueError):
        DegreeSequence(np.array([0, 2]))
    with pytest.raises(ValueError):
        DegreeSequence(np.array([1, 1, 1]))
    with pytest.raises(ValueError):
        DegreeSequence(np.array([], dtype=np.int64))


def test_degree_sequence_file_roundtrip(tmp_path):
    seq = DegreeSequence(np.array([3, 1, 3, 3]))
    path = tmp_path / "degrees.txt"
    seq.save(path)
    back = DegreeSequence.load(path)
    assert np.array_equal(back.degrees, seq.degrees)


def test_sample_degenerate_degree_one():
    rng = np.random.default_rng(0)
    seq = sample_iid_degrees(Pmf.from_dict({1: 1.0}), 4, rng)
    assert seq.degrees.tolist() == [1, 1, 1, 1]
    assert seq.total_degree == 4


def test_sample_parity_fix_on_odd_total():
    # three draws of degree 3 sum to 9, so the last entry gets bumped
    rng = np.random.default_rng(1)
    seq = sample_iid_degrees(Pmf.from_dict({3: 1.0}), 3, rng)
    assert seq.degrees.tolist() == [3, 3, 4]


def test_sample_rejects_mass_at_zero():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        sample_iid_degrees(Pmf.from_dict({0: 0.5, 2: 0.5}), 10, rng)


def test_sample_mixture_degree_one_fraction():
    rng = np.random.default_rng(3)
    seq = sample_iid_degrees(Pmf.from_dict({1: 0.5, 3: 0.5}), 100000, rng)
    frac = float(np.mean(seq.degrees == 1))
    assert 0.49 <= frac <= 0.51


def test_empirical_distribution_small():
    seq = DegreeSequence(np.array([1, 2, 2, 3]))
    emp = empirical_distribution(seq)
    assert emp.as_dict() == {1: 0.25, 2: 0.5, 3: 0.25}


@given(pmf_dicts())
def test_pmf_fuzz_accepts_normalized_dicts(masses):
    p = Pmf.from_dict(masses)
    assert abs(sum(p.probabilities) - 1.0) <= 1e-9


@given(pmf_dicts(), st.integers(min_value=1, max_value=500), st.integers(0, 2**32 - 1))
def test_sample_fuzz_parity_and_support(masses, n, seed):
    dist = Pmf.from_dict(masses)
    seq = sample_iid_degrees(dist, n, np.random.default_rng(seed))
    assert seq.n == n
    assert seq.total_degree % 2 == 0
    # at most one entry may sit off the support, and only one above a
    # support point (the parity bump)
    support = set(dist.support)
    off = [int(d) for d in seq.degrees.tolist() if d not in support]
    assert len(off) <= 1
    if off:
        assert off[0] - 1 in support


@given(degree_lists())
def test_empirical_fuzz_masses_sum_to_one(degrees):
    seq = DegreeSequence(np.array(degrees))
    emp = empirical_distribution(seq)
    assert abs(sum(emp.probabilities) - 1.0) <= 1e-9
    assert emp.mean() == pytest.approx(seq.total_degree / seq.n)
