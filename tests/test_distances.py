import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmgiant import (
    DegreeSequence,
    Pmf,
    pair_half_edges,
    sample_distances,
    sample_iid_degrees,
)
from cmgiant import traversal
from cmgiant.distances import DistanceSample
from cmgiant.traversal import pair_distance
from oracles import distances_from
from strategies import degree_lists, graph_from_edges, hub_multigraphs
from test_components import cycle_graph, graph_from


def test_pair_distance_on_cycles():
    g = cycle_graph(4)
    assert pair_distance(g, 0, 0) == 0
    assert pair_distance(g, 0, 1) == 1
    assert pair_distance(g, 0, 2) == 2
    assert pair_distance(g, 0, 3) == 1
    g6 = cycle_graph(6)
    assert pair_distance(g6, 0, 3) == 3
    assert pair_distance(g6, 1, 5) == 2


def test_pair_distance_disconnected():
    g = graph_from([1, 1, 1, 1], [1, 0, 3, 2])
    assert pair_distance(g, 0, 2) is None
    assert pair_distance(g, 0, 1) == 1


@given(degree_lists(max_n=25), st.integers(0, 2**32 - 1))
def test_pair_distance_fuzz_against_bfs(degrees, seed):
    seq = DegreeSequence(np.array(degrees))
    g = pair_half_edges(seq, np.random.default_rng(seed))
    for a in range(g.n):
        truth = distances_from(g, a)
        for b in range(g.n):
            d = pair_distance(g, a, b)
            if truth[b] < 0:
                assert d is None
            else:
                assert d == int(truth[b])
            assert d == pair_distance(g, b, a)



def test_pair_distance_on_two_paths_with_loop_and_parallel_edge():
    # a=0 and b=1 are joined by 0-2-3-1 (length 3) and 0-4-5-6-1 (length 4);
    # 2-3, where the two searches from 0 and 1 meet, is a double edge, and 6,
    # on the frontier that finds the meeting, carries a self-loop.
    #   half-edges: 0: 0 1 | 1: 2 3 | 2: 4 5 6 | 3: 7 8 9 | 4: 10 11
    #               5: 12 13 | 6: 14 15 16 17
    g = graph_from(
        [2, 2, 3, 3, 2, 2, 4],
        [4, 10, 7, 14, 0, 8, 9, 2, 5, 6, 1, 12, 11, 15, 3, 13, 17, 16],
    )
    assert pair_distance(g, 0, 1) == pair_distance(g, 1, 0) == 3
    assert pair_distance(g, 2, 6) == pair_distance(g, 6, 2) == 3
    for a in range(g.n):
        truth = distances_from(g, a)
        for b in range(g.n):
            assert pair_distance(g, a, b) == pair_distance(g, b, a) == int(truth[b])


def test_pair_distance_matches_bfs_on_sampled_pairs():
    # uniform pairs as sample_distances draws them, on a law with hubs and
    # many leaves, so the two sides often grow unevenly
    rng = np.random.default_rng(31)
    seq = sample_iid_degrees(Pmf.from_dict({1: 0.4, 4: 0.3, 10: 0.3}), 3000, rng)
    g = pair_half_edges(seq, rng)
    a = rng.integers(0, g.n, size=300).tolist()
    b = rng.integers(0, g.n, size=300).tolist()
    connected = 0
    for u, v in zip(a, b):
        truth = int(distances_from(g, u)[v])
        expected = None if truth < 0 else truth
        connected += expected is not None
        assert pair_distance(g, u, v) == pair_distance(g, v, u) == expected
    assert 0 < connected < 300


@given(hub_multigraphs(), st.integers(1, 8), st.data())
def test_pair_distance_on_hub_multigraphs(g, narrow, data):
    # frontiers through the hub and the star run from one vertex to dozens
    # and back; at the default threshold some searches grow levels both in
    # Python and by numpy, and at a threshold of 1-8 vertices nearly all do
    a = data.draw(st.integers(0, g.n - 1))
    truth = distances_from(g, a)
    for threshold in (traversal._NARROW, narrow):
        with mock.patch.object(traversal, "_NARROW", threshold):
            for b in range(g.n):
                expected = None if truth[b] < 0 else int(truth[b])
                assert pair_distance(g, a, b) == pair_distance(g, b, a) == expected


def test_searches_reuse_stamps_past_the_last_tag():
    # a hub with 60 spokes, a double edge and two self-loops, and a path of
    # three off every fifth spoke; apart from it a 50-leaf star, whose leaves
    # fill a level wide enough for numpy, and a path of three vertices
    edges = [(0, s) for s in range(1, 61)] + [(0, 1), (0, 0), (0, 0)]
    n = 61
    for s in range(1, 61, 5):
        edges += [(s, n), (n, n + 1), (n + 1, n + 2)]
        n += 3
    star = n
    edges += [(star, star + k) for k in range(1, 51)]
    n += 51
    edges += [(n, n + 1), (n + 1, n + 2)]
    g = graph_from_edges(n + 3, edges)
    truth = [distances_from(g, v) for v in range(g.n)]
    rng = np.random.default_rng(12)
    searches = apart = 0
    for a, b in rng.integers(0, g.n, size=(210, 2)).tolist():
        for u, v in ((a, b), (b, a)):
            expected = None if truth[u][v] < 0 else int(truth[u][v])
            assert pair_distance(g, u, v) == expected
            searches += u != v
            apart += expected is None
    # each search takes two of the 254 tags, so they ran out three times
    assert searches > 3 * 127 and apart > 100
    assert g._stamps.last == 2 * ((searches - 1) % 127 + 1)
    # boundary_counts' per-root searches take one tag each from the same stamps
    for r in (1, 2, 3):
        sizes = traversal._sphere_sizes(g, np.arange(g.n), r)
        assert sizes == [int(np.count_nonzero(d == r)) for d in truth]


def test_pair_distance_keeps_five_bytes_a_vertex():
    # the stamps take one byte a vertex and the level slots four; the
    # searches keep nothing else but the few freed small buffers numpy
    # holds for reuse (2-4 kB here)
    rng = np.random.default_rng(7)
    seq = sample_iid_degrees(Pmf.from_dict({1: 0.4, 4: 0.3, 10: 0.3}), 20000, rng)
    g = pair_half_edges(seq, rng)
    g.adjacency()
    pairs = rng.integers(0, g.n, size=(20, 2)).tolist()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for a, b in pairs:
            pair_distance(g, a, b)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 5 * g.n <= kept - before <= 5 * g.n + 8192


def test_sample_distances_perfect_matching():
    seq = DegreeSequence(np.ones(100, dtype=np.int64))
    g = pair_half_edges(seq, np.random.default_rng(4))
    sample = sample_distances(g, 500, np.random.default_rng(5))
    assert sample.pairs_attempted == 500
    assert len(sample.finite_distances) + sample.infinite_count == 500
    # components have two vertices, so connected pairs sit at distance 0 or 1
    assert set(sample.finite_distances) <= {0, 1}
    assert sample.infinite_count > 400


def test_sample_distances_single_vertex():
    g = graph_from([2], [1, 0])
    sample = sample_distances(g, 5, np.random.default_rng(6))
    assert sample.finite_distances == (0, 0, 0, 0, 0)
    assert sample.finite_fraction == 1.0
    assert sample.mean_finite() == 0.0
    assert sample.median_finite() == 0.0


def test_sample_distances_validation():
    g = cycle_graph(3)
    with pytest.raises(ValueError):
        sample_distances(g, 0, np.random.default_rng(0))


def test_empty_finite_sample_rejects_stats():
    sample = DistanceSample(pairs_attempted=3, finite_distances=(), infinite_count=3)
    assert sample.finite_fraction == 0.0
    with pytest.raises(ValueError):
        sample.mean_finite()
    with pytest.raises(ValueError):
        sample.median_finite()


def test_distances_rarely_fall_far_below_reference(mixture_graph, mixture_spec):
    # the short-distance tail: the chance a uniform pair sits below
    # 0.7 * log n / log nu is at most 10 n^(-0.3) at this size
    _, g = mixture_graph
    sample = sample_distances(g, 400, np.random.default_rng(21))
    ref = math.log(g.n) / math.log(mixture_spec.nu)
    short = sum(1 for d in sample.finite_distances if d <= 0.7 * ref)
    assert short / sample.pairs_attempted <= 10.0 * g.n ** (-0.3)


def test_mean_ratio_near_one_at_moderate_size(mixture_graph, mixture_spec):
    _, g = mixture_graph
    sample = sample_distances(g, 400, np.random.default_rng(22))
    ref = math.log(g.n) / math.log(mixture_spec.nu)
    assert 0.7 <= sample.mean_finite() / ref <= 1.3
    # connectivity of a uniform pair approaches the squared giant fraction
    assert abs(sample.finite_fraction - (22 / 27) ** 2) <= 0.05
