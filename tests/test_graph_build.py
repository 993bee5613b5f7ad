import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from cmgiant import (
    DegreeSequence,
    HalfEdgeGraph,
    Pmf,
    apply_shared_matching,
    component_decomposition,
    coupled_pairing,
    disjoint_union,
    pair_half_edges,
    sample_iid_degrees,
    truncate_explode,
)
from oracles import edge_iter, truncate_explode_loop
from strategies import degree_lists, loopy_graphs


def build(degrees, seed=0):
    seq = DegreeSequence(np.array(degrees, dtype=np.int64))
    return pair_half_edges(seq, np.random.default_rng(seed))


def test_two_degree_one_vertices_forced_edge():
    g = build([1, 1])
    assert g.mate.tolist() == [1, 0]
    assert g.num_edges == 1
    assert g.owner[g.mate[g.offsets[0]:g.offsets[1]]].tolist() == [1]
    assert list(edge_iter(g)) == [(0, 1)]


def test_single_vertex_forced_self_loop():
    g = build([2])
    assert g.mate.tolist() == [1, 0]
    assert g.num_edges == 1
    # the self-loop shows up twice in the neighbor multiset, once as an edge
    assert g.owner[g.mate[g.offsets[0]:g.offsets[1]]].tolist() == [0, 0]
    assert list(edge_iter(g)) == [(0, 0)]


def test_self_loop_probability_one_third():
    # degrees (1,1,2): of the three matchings on four labels exactly one
    # gives the degree-2 vertex a self-loop
    seq = DegreeSequence(np.array([1, 1, 2]))
    loops = 0
    trials = 10000
    for seed in range(trials):
        g = pair_half_edges(seq, np.random.default_rng(seed))
        if g.mate[2] == 3:
            loops += 1
    assert abs(loops / trials - 1 / 3) <= 0.02


def test_matching_uniformity_chi_squared():
    # identify the matching on labels {0,1,2,3} by the partner of label 0
    seq = DegreeSequence(np.array([1, 1, 2]))
    counts = {1: 0, 2: 0, 3: 0}
    trials = 100000
    for seed in range(trials):
        g = pair_half_edges(seq, np.random.default_rng(seed))
        counts[int(g.mate[0])] += 1
    _, p = stats.chisquare(list(counts.values()))
    assert p > 0.001


def test_matching_uniformity_over_fifteen_matchings():
    # degrees (1,2,3) give six labels and 15 perfect matchings on them
    seq = DegreeSequence(np.array([1, 2, 3]))
    rng = np.random.default_rng(6)
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(30000):
        key = tuple(pair_half_edges(seq, rng).mate.tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 15
    _, p = stats.chisquare(list(counts.values()))
    assert p > 0.001


def test_validate_rejects_broken_matchings():
    offsets = np.array([0, 1, 2])
    with pytest.raises(ValueError):
        HalfEdgeGraph(offsets, np.array([0, 1])).validate()  # fixed points
    with pytest.raises(ValueError):
        HalfEdgeGraph(offsets, np.array([1, 2])).validate()  # out of range
    with pytest.raises(ValueError):
        HalfEdgeGraph(np.array([0, 1]), np.array([0])).validate()  # odd count
    with pytest.raises(ValueError):
        HalfEdgeGraph(offsets, np.array([1])).validate()  # wrong length
    bad = np.array([2, 3, 1, 0])  # not an involution
    with pytest.raises(ValueError):
        HalfEdgeGraph(np.array([0, 2, 4]), bad).validate()


def test_validate_checks_past_the_first_slice():
    # validate checks the labels a slice at a time; each fault sits only in
    # the second slice, and an involution fault wins over a fixed point, as
    # in a check over all labels at once
    ell = 2**20 + 64
    offsets = np.arange(0, ell + 1, 2)
    good = np.arange(ell) ^ 1
    HalfEdgeGraph(offsets, good).validate()
    x = 2**20 + 8
    swapped = good.copy()
    swapped[x] = x + 2  # x + 2 stays paired with x + 3
    with pytest.raises(ValueError, match="not an involution"):
        HalfEdgeGraph(offsets, swapped).validate()
    fixed = good.copy()
    fixed[x], fixed[x + 1] = x, x + 1
    with pytest.raises(ValueError, match="fixed point"):
        HalfEdgeGraph(offsets, fixed).validate()
    fixed[2], fixed[3] = 2, 3
    fixed[x], fixed[x + 1] = x + 2, x + 1
    with pytest.raises(ValueError, match="not an involution"):
        HalfEdgeGraph(offsets, fixed).validate()


def test_truncate_explode_basic():
    emap = truncate_explode(DegreeSequence(np.array([5, 1])), 3)
    assert emap.truncated_degrees.degrees.tolist() == [3, 1, 1, 1]
    assert emap.exploded_n == 4
    assert emap.cutoff == 3
    # labels 0,1,2 stay with vertex 0; labels 3,4 move to the new vertices
    assert emap.half_edge_relabeling.tolist() == [0, 1, 2, 4, 5, 3]


def test_truncate_explode_identity_when_below_cutoff():
    seq = DegreeSequence(np.array([2, 2]))
    emap = truncate_explode(seq, 3)
    assert emap.exploded_n == 2
    assert emap.truncated_degrees.degrees.tolist() == [2, 2]
    assert emap.half_edge_relabeling.tolist() == [0, 1, 2, 3]


def test_truncate_explode_shatters_single_vertex():
    emap = truncate_explode(DegreeSequence(np.array([4])), 1)
    assert emap.truncated_degrees.degrees.tolist() == [1, 1, 1, 1]
    assert emap.half_edge_relabeling.tolist() == [0, 1, 2, 3]


@given(degree_lists(), st.integers(1, 6))
def test_truncate_explode_matches_the_per_label_oracle(degrees, b):
    emap = truncate_explode(DegreeSequence(np.array(degrees)), b)
    truncated, relabeling = truncate_explode_loop(degrees, b)
    assert emap.truncated_degrees.degrees.tolist() == truncated
    assert emap.half_edge_relabeling.dtype == np.int64
    assert emap.half_edge_relabeling.tolist() == relabeling


def test_explosion_map_validate_rejects_non_bijections():
    emap = truncate_explode(DegreeSequence(np.array([5, 1])), 3)
    for bad in ([0, 1, 2, 4, 4, 3], [0, 1, 2, 4, 5, 6], [0, 1, 2, 4, 5, -1],
                [0, 1, 2, 4, 5], [0.0, 1.0, 2.0, 4.0, 5.0, 3.0]):
        with pytest.raises(ValueError, match="bijection"):
            replace(emap, half_edge_relabeling=np.array(bad)).validate()


def test_truncate_explode_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        truncate_explode(DegreeSequence(np.array([2, 2])), 0)


def test_shared_matching_identity_without_explosion():
    seq = DegreeSequence(np.array([2, 3, 1, 2]))
    emap = truncate_explode(seq, 10)
    g = pair_half_edges(seq, np.random.default_rng(5))
    g1, g2 = apply_shared_matching(emap, g.mate)
    assert np.array_equal(g1.mate, g2.mate)
    assert np.array_equal(g1.offsets, g2.offsets)


def check_coupled(degrees, b, seed):
    seq = DegreeSequence(np.array(degrees, dtype=np.int64))
    emap = truncate_explode(seq, b)
    g, gp = coupled_pairing(emap, np.random.default_rng(seed))
    n = seq.n
    # kept vertices truncate to min(d, b); spawned vertices have degree 1
    assert np.array_equal(
        gp.degrees()[:n], np.minimum(seq.degrees, b)
    )
    assert np.all(gp.degrees()[n:] == 1)
    assert gp.num_half_edges == g.num_half_edges
    # any two original vertices connected after truncation were connected
    # before: exploded clusters refine the original ones
    labels = component_decomposition(g).labels
    labels_p = component_decomposition(gp).labels
    for c in np.unique(labels_p[:n]):
        members = np.flatnonzero(labels_p[:n] == c)
        assert np.unique(labels[members]).size == 1


def test_coupled_pairing_small_cases():
    for seed in range(30):
        check_coupled([5, 1], 3, seed)
        check_coupled([4, 4, 2, 1, 1], 2, seed)


@given(degree_lists(max_n=25), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_coupled_pairing_fuzz(degrees, b, seed):
    check_coupled(degrees, b, seed)


@given(degree_lists(), st.integers(0, 2**32 - 1))
def test_pairing_fuzz_involution(degrees, seed):
    seq = DegreeSequence(np.array(degrees))
    g = pair_half_edges(seq, np.random.default_rng(seed))
    ell = g.num_half_edges
    assert ell == seq.total_degree
    assert np.array_equal(g.mate[g.mate], np.arange(ell))
    assert not np.any(g.mate == np.arange(ell))
    assert np.array_equal(g.degrees(), seq.degrees)
    # neighbor multiset sizes match degrees
    for v in range(seq.n):
        assert len(g.owner[g.mate[g.offsets[v]:g.offsets[v + 1]]]) == int(seq.degrees[v])


def test_disjoint_union_keeps_sides_apart():
    g1 = build([1, 1], seed=1)
    g2 = build([2, 2], seed=2)
    u = disjoint_union(g1, g2)
    assert u.n == 4
    assert u.num_edges == g1.num_edges + g2.num_edges
    assert u.degrees().tolist() == [1, 1, 2, 2]
    labels = component_decomposition(u).labels
    assert set(labels[:2]) & set(labels[2:]) == set()
    u.validate()


# vertex 0 has degree 0, vertex 1 a self-loop and a double edge to vertex 2
@given(loopy_graphs())
@example(HalfEdgeGraph(np.array([0, 0, 4, 6]), np.array([1, 0, 4, 5, 2, 3])))
def test_adjacency_views_match_the_array_oracle(g):
    # the views read the graph's own arrays: vertex v's neighbours are the
    # owners of its half-edges' mates, in label order, as Python ints
    offsets, nbr = g.adjacency()
    assert list(offsets) == g.offsets.tolist()
    assert len(nbr) == g.num_half_edges
    for v in range(g.n):
        row = list(nbr[offsets[v] : offsets[v + 1]])
        assert row == g.owner[g.mate[g.offsets[v] : g.offsets[v + 1]]].tolist()
        assert all(type(w) is int for w in row)
        assert type(offsets[v]) is int
    assert g.adjacency() is g.adjacency()


def test_adjacency_keeps_one_int64_per_half_edge():
    # the views share offsets and hold one int64 per half-edge; Python lists
    # of ints kept about 48 bytes a half-edge
    rng = np.random.default_rng(7)
    seq = sample_iid_degrees(Pmf.from_dict({1: 0.4, 4: 0.3, 10: 0.3}), 20000, rng)
    g = pair_half_edges(seq, rng)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        views = g.adjacency()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert views is g.adjacency()
    assert kept - before <= 16 * g.num_half_edges
    assert peak - before <= 16 * g.num_half_edges
