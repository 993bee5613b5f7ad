import time
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from cmgiant import (
    DegreeSequence,
    HalfEdgeGraph,
    Pmf,
    component_decomposition,
    coupled_pairing,
    disconnected_pair_fraction,
    disjoint_union,
    giant_statistics,
    pair_half_edges,
    sample_iid_degrees,
    sum_squares_ratio,
    truncate_explode,
)
from cmgiant import traversal
from oracles import boundary_counts_bfs, distances_from, edge_iter, min_label_decomposition, walk_keys
from strategies import degree_lists, loopy_graphs


def graph_from(degrees, mate):
    seq = DegreeSequence(np.array(degrees, dtype=np.int64))
    g = HalfEdgeGraph.from_degrees(seq, np.array(mate, dtype=np.int64))
    g.validate()
    return g


def cycle_graph(n):
    """An n-cycle wired by hand (n >= 3): vertex v owns labels 2v, 2v+1."""
    mate = np.empty(2 * n, dtype=np.int64)
    for v in range(n):
        w = (v + 1) % n
        mate[2 * v + 1] = 2 * w
        mate[2 * w] = 2 * v + 1
    return graph_from([2] * n, mate)


def reference_decomposition(g):
    """Brute-force components: one BFS per not-yet-reached vertex.

    Returns (sizes, labels, degree histograms, edge counts) with clusters
    ranked by (-size, smallest vertex), the order component_decomposition
    promises.
    """
    members = []
    reached = np.zeros(g.n, dtype=bool)
    for v in range(g.n):
        if not reached[v]:
            found = np.flatnonzero(distances_from(g, v) >= 0)
            reached[found] = True
            members.append(found)
    members.sort(key=lambda m: (-m.size, int(m[0])))
    labels = np.empty(g.n, dtype=np.int64)
    for rank, m in enumerate(members):
        labels[m] = rank
    degrees = g.degrees()
    hists = [dict(Counter(degrees[m].tolist())) for m in members]
    edge_counts = Counter(int(labels[u]) for u, _ in edge_iter(g))
    edges = [edge_counts[rank] for rank in range(len(members))]
    return [m.size for m in members], labels, hists, edges


def giant_edges(cs, n):
    """The giant's edge count, read back from giant_statistics' edge fraction."""
    return round(giant_statistics(cs, n).edge_frac * n)


def assert_matches_reference(g):
    cs = component_decomposition(g)
    sizes, labels, hists, edges = reference_decomposition(g)
    assert cs.sizes.tolist() == sizes
    assert np.array_equal(cs.labels, labels)
    assert giant_statistics(cs, g.n).vk_frac == {d: c / g.n for d, c in hists[0].items()}
    assert giant_edges(cs, g.n) == edges[0]
    return cs


@given(degree_lists(), st.integers(0, 2**32 - 1))
def test_decomposition_matches_bfs_reference(degrees, seed):
    seq = DegreeSequence(np.array(degrees))
    assert_matches_reference(pair_half_edges(seq, np.random.default_rng(seed)))


@given(degree_lists(max_n=20), degree_lists(max_n=20), st.integers(0, 2**32 - 1))
def test_decomposition_of_disjoint_union_matches_reference(left, right, seed):
    rng = np.random.default_rng(seed)
    g1 = pair_half_edges(DegreeSequence(np.array(left)), rng)
    g2 = pair_half_edges(DegreeSequence(np.array(right)), rng)
    cs = assert_matches_reference(disjoint_union(g1, g2))
    assert not set(cs.labels[: g1.n].tolist()) & set(cs.labels[g1.n :].tolist())


def test_shuffled_cycle_is_one_component():
    # a cycle visiting the vertices in random order puts the smallest id far
    # from most vertices, the slowest case for min-label hooking
    n = 10_000
    order = np.random.default_rng(4).permutation(n)
    mate = np.empty(2 * n, dtype=np.int64)
    tail, head = 2 * order + 1, 2 * np.roll(order, -1)
    mate[tail], mate[head] = head, tail
    g = graph_from([2] * n, mate)
    cs = assert_matches_reference(g)
    assert cs.sizes.tolist() == [n]
    assert giant_edges(cs, n) == min_label_decomposition(g)[1][0] == n


def assert_matches_min_label_reference(g):
    cs = component_decomposition(g)
    sizes, edges, labels, degrees = min_label_decomposition(g)
    for name, want in (("sizes", sizes), ("labels", labels), ("degrees", degrees)):
        got = getattr(cs, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert giant_edges(cs, g.n) == edges[0]
    return cs


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("law", [{1: 0.5, 3: 0.5}, {1: 0.4, 4: 0.3, 10: 0.3}])
def test_decomposition_matches_min_label_reference_on_pairings(law, seed):
    rng = np.random.default_rng(seed)
    seq = sample_iid_degrees(Pmf.from_dict(law), 20_000, rng)
    assert_matches_min_label_reference(pair_half_edges(seq, rng))


@pytest.mark.parametrize("seed", range(3))
def test_decomposition_matches_min_label_reference_on_truncation(seed):
    # the exploded graph has about 2.4n degree-1 vertices: mostly tiny clusters
    rng = np.random.default_rng(seed)
    seq = sample_iid_degrees(Pmf.from_dict({1: 0.4, 4: 0.3, 10: 0.3}), 10_000, rng)
    g, gp = coupled_pairing(truncate_explode(seq, 3), rng)
    for graph in (g, gp):
        assert_matches_min_label_reference(graph)


def test_decomposition_matches_min_label_reference_on_equal_cycles():
    # 400 cycles of 50 vertices each, on a shuffled vertex order: every
    # cluster ties on size, and a cycle's smallest vertex is far from most
    # of its vertices, so the ties are carried through several contractions
    n, length = 20_000, 50
    order = np.random.default_rng(9).permutation(n).reshape(-1, length)
    mate = np.empty(2 * n, dtype=np.int64)
    tail, head = 2 * order + 1, 2 * np.roll(order, -1, axis=1)
    mate[tail], mate[head] = head, tail
    cs = assert_matches_min_label_reference(graph_from([2] * n, mate))
    assert cs.sizes.tolist() == [length] * (n // length)
    firsts = np.sort(order.min(axis=1))
    assert np.array_equal(cs.labels[firsts], np.arange(n // length))


def relabel_vertices(g, perm):
    """g with vertex v renamed perm[v], each vertex keeping its half-edges in order."""
    degrees = np.empty(g.n, dtype=np.int64)
    degrees[perm] = g.degrees()
    offsets = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    # label x of vertex v moves to the same offset in perm[v]'s range
    moved = offsets[perm[g.owner]] + np.arange(g.num_half_edges) - g.offsets[g.owner]
    mate = np.empty_like(g.mate)
    mate[moved] = moved[g.mate]
    return HalfEdgeGraph(offsets, mate)


@st.composite
def live_root_graphs(draw):
    """A random pairing beside shuffled cycles of 20-400 vertices and up to
    ten degree-0 vertices, built from offsets on a random vertex order.

    The first min-label round settles most of the pairing's clusters; a
    shuffled cycle puts its smallest vertex far from most of its vertices,
    so it stays live through several later rounds.
    """
    degrees = draw(degree_lists(max_n=30))
    cycles = draw(st.lists(st.integers(20, 400), max_size=3))
    isolated = draw(st.integers(0, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = pair_half_edges(DegreeSequence(np.array(degrees)), rng)
    for length in cycles:
        g = disjoint_union(g, cycle_graph(length))
    offsets = np.concatenate([g.offsets, np.full(isolated, g.offsets[-1])])
    g = HalfEdgeGraph(offsets, g.mate)
    return relabel_vertices(g, rng.permutation(g.n))


@given(live_root_graphs())
def test_decomposition_matches_min_label_reference_on_live_roots(g):
    g.validate()
    assert_matches_min_label_reference(g)
    assert_matches_reference(g)


def test_self_loops_and_parallel_edges():
    # vertex 0 carries a self-loop; vertices 1 and 2 share two parallel edges
    # and vertex 1 has a self-loop too; vertices 3 and 4 form an edge
    g = graph_from([2, 4, 2, 1, 1], [1, 0, 6, 7, 5, 4, 2, 3, 9, 8])
    cs = assert_matches_reference(g)
    assert cs.sizes.tolist() == [2, 2, 1]
    assert cs.labels.tolist() == [2, 0, 0, 1, 1]
    assert giant_edges(cs, g.n) == min_label_decomposition(g)[1][0] == 3


def test_single_edge_component():
    g = graph_from([1, 1], [1, 0])
    cs = component_decomposition(g)
    assert cs.sizes.tolist() == [2]
    assert giant_edges(cs, g.n) == min_label_decomposition(g)[1][0] == 1
    assert cs.labels.tolist() == [0, 0]


def test_self_loop_component():
    g = graph_from([2], [1, 0])
    cs = component_decomposition(g)
    assert cs.sizes.tolist() == [1]
    # a self-loop is one edge even though it uses two half-edges
    assert giant_edges(cs, g.n) == min_label_decomposition(g)[1][0] == 1


def test_four_cycle():
    g = cycle_graph(4)
    cs = component_decomposition(g)
    assert cs.sizes.tolist() == [4]
    assert giant_edges(cs, g.n) == min_label_decomposition(g)[1][0] == 4


def test_tie_break_goes_to_lowest_vertex():
    # two components of size 2: the one holding vertex 0 is ranked first
    g = graph_from([1, 1, 1, 1], [2, 3, 0, 1])
    cs = component_decomposition(g)
    assert cs.sizes.tolist() == [2, 2]
    assert cs.labels.tolist() == [0, 1, 0, 1]


def test_giant_statistics_two_components():
    # a 3-path {0,1,2} plus an isolated edge {3,4}
    g = graph_from([1, 2, 1, 1, 1], [1, 0, 3, 2, 5, 4])
    cs = component_decomposition(g)
    gs = giant_statistics(cs, g.n)
    assert gs.gmax_frac == pytest.approx(3 / 5)
    assert gs.second_frac == pytest.approx(2 / 5)
    assert gs.vk_frac == {1: 2 / 5, 2: 1 / 5}
    assert gs.edge_frac == pytest.approx(2 / 5)


def test_giant_statistics_single_cluster():
    gs = giant_statistics(component_decomposition(cycle_graph(5)), 5)
    assert gs.gmax_frac == 1.0
    assert gs.second_frac == 0.0
    assert gs.edge_frac == 1.0


def test_sum_squares_perfect_matching():
    n = 10000
    seq = DegreeSequence(np.ones(n, dtype=np.int64))
    g = pair_half_edges(seq, np.random.default_rng(11))
    cs = component_decomposition(g)
    ratio = sum_squares_ratio(cs, 3, n)
    assert ratio.all_clusters == pytest.approx(2 / n)
    assert ratio.large_only == 0.0


def test_sum_squares_single_cluster():
    ratio = sum_squares_ratio(component_decomposition(cycle_graph(6)), 2, 6)
    assert ratio.all_clusters == 1.0
    assert ratio.large_only == 1.0


def test_disconnected_pair_fraction_two_pairs():
    # components {0,1} and {2,3}: 8 of the 16 ordered pairs straddle them
    g = graph_from([1, 1, 1, 1], [1, 0, 3, 2])
    cs = component_decomposition(g)
    assert disconnected_pair_fraction(cs, 2, 4) == pytest.approx(0.5)
    # raising k past the cluster size removes all qualifying pairs
    assert disconnected_pair_fraction(cs, 3, 4) == 0.0


def test_disconnected_pair_fraction_single_cluster():
    cs = component_decomposition(cycle_graph(7))
    assert disconnected_pair_fraction(cs, 1, 7) == 0.0


@given(degree_lists(max_n=30), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_disconnected_pair_fraction_matches_brute_force(degrees, k, seed):
    seq = DegreeSequence(np.array(degrees))
    g = pair_half_edges(seq, np.random.default_rng(seed))
    cs = component_decomposition(g)
    n = g.n
    big = {c for c, s in enumerate(cs.sizes.tolist()) if s >= k}
    count = 0
    for u in range(n):
        for v in range(n):
            cu, cv = int(cs.labels[u]), int(cs.labels[v])
            if cu != cv and cu in big and cv in big:
                count += 1
    assert disconnected_pair_fraction(cs, k, n) == count / (n * n)


def test_boundary_pair_fraction_perfect_matching():
    from cmgiant import boundary_pair_fraction

    n = 200
    seq = DegreeSequence(np.ones(n, dtype=np.int64))
    g = pair_half_edges(seq, np.random.default_rng(3))
    # every sphere of radius 2 around a degree-1 vertex is empty
    assert boundary_pair_fraction(g, component_decomposition(g), 2) == 0.0


def test_boundary_pair_fraction_two_cycles():
    from cmgiant import boundary_pair_fraction

    g = disjoint_union(cycle_graph(100), cycle_graph(100))
    cs = component_decomposition(g)
    # on a cycle every boundary has exactly 2 vertices, short of r=3
    assert boundary_pair_fraction(g, cs, 3) == 0.0
    # at r=2 all 200 vertices qualify and the two clusters face each other
    assert boundary_pair_fraction(g, cs, 2) == pytest.approx(
        2 * 100 * 100 / (200 * 200)
    )


def paired_graph(degrees, seed):
    return pair_half_edges(DegreeSequence(np.array(degrees)), np.random.default_rng(seed))


@given(
    st.one_of(st.builds(paired_graph, degree_lists(), st.integers(0, 2**32 - 1)), loopy_graphs()),
    st.integers(0, 8),
    st.integers(1, 200),
)
def test_boundary_counts_match_bfs(g, r, budget):
    # dense small multigraphs at large r pass the half-edge bound on walks,
    # so both the walk keys and the per-root search run; a small walk budget
    # splits the roots into many chunks
    with mock.patch.object(traversal, "_WALK_BUDGET", budget):
        counts = traversal.boundary_counts(g, r)
    assert np.array_equal(counts, np.minimum(boundary_counts_bfs(g, r), r))


# vertex 0 has degree 0, vertex 1 a self-loop and a double edge to vertex 2
LOOPY = HalfEdgeGraph(np.array([0, 0, 4, 6]), np.array([1, 0, 4, 5, 2, 3]))


@given(
    loopy_graphs(),
    st.integers(0, 4),
    st.integers(1, 200),
    st.integers(0, 2**10 - 1),
    st.none() | st.integers(0, 4),
)
@example(LOOPY, 4, 1, 7, None)
@example(LOOPY, 3, 200, 6, None)
@example(LOOPY, 3, 1, 7, 2)
def test_walk_keys_match_the_oracle(g, depth, budget, chosen, cap):
    # roots are the vertices whose bit is set in chosen, in increasing order
    roots = np.array([v for v in range(g.n) if chosen >> v & 1], dtype=np.int64)
    cost = traversal._walk_counts(g, depth)[0][roots]
    if cap is not None and depth:
        last = cost - traversal._walk_counts(g, depth - 1)[0][roots]
        cost -= last - np.minimum(last, cap)
    vb = traversal._vertex_bits(g.n)
    listed, hi = [], 0
    for lo, hi_next, pair, length in traversal._walk_keys(g, roots, depth, cost, budget, cap):
        assert lo == hi and hi_next > lo
        assert hi_next == lo + 1 or cost[lo:hi_next].sum() <= budget
        hi = hi_next
        root = roots[lo + (pair >> vb)]
        listed.extend(zip(root.tolist(), (pair & ((1 << vb) - 1)).tolist(), length.tolist()))
    assert hi == roots.size
    assert listed == walk_keys(g, roots, depth, cap)


def test_boundary_counts_past_the_walk_explosion():
    # 7^40 non-backtracking walks of length 40 from each root: every root
    # takes the per-root search
    g = pair_half_edges(DegreeSequence(np.full(8, 8)), np.random.default_rng(5))
    start = time.perf_counter()
    counts = traversal.boundary_counts(g, 40)
    assert time.perf_counter() - start < 0.5
    assert np.array_equal(counts, np.minimum(boundary_counts_bfs(g, 40), 40))


# Root 0 of each graph has four walks of length 2, and the first two reach
# only one vertex at distance 2. On TRIANGLE, 0 is a corner of the triangle
# 0-1-2 whose other corners hold the pendants 3 and 4; its first walks end
# at 2 and 3. On DOUBLE, 0 has a double edge to 1, which holds the pendants
# 2 and 3; its first walks end back at 0 and at 2.
TRIANGLE = HalfEdgeGraph(np.array([0, 2, 5, 8, 9, 10]), np.array([2, 5, 0, 6, 8, 1, 3, 9, 4, 7]))
DOUBLE = HalfEdgeGraph(np.array([0, 2, 6, 7, 8]), np.array([2, 3, 0, 1, 6, 7, 4, 5]))


@pytest.mark.parametrize("g", [TRIANGLE, DOUBLE], ids=["triangle", "double_edge"])
def test_boundary_counts_search_roots_whose_first_walks_collide(g):
    g.validate()
    with mock.patch.object(traversal, "_sphere_sizes", wraps=traversal._sphere_sizes) as search:
        counts = traversal.boundary_counts(g, 2)
    assert 0 in search.call_args.args[1]
    assert counts[0] == 2
    assert np.array_equal(counts, np.minimum(boundary_counts_bfs(g, 2), 2))


def test_boundary_counts_searches_build_no_adjacency_views():
    # the per-root searches read far ends through mate and owner, so a graph
    # that only runs censuses keeps no neighbour array, 8 bytes a half-edge
    g = HalfEdgeGraph(TRIANGLE.offsets, TRIANGLE.mate)
    with mock.patch.object(traversal, "_sphere_sizes", wraps=traversal._sphere_sizes) as search:
        traversal.boundary_counts(g, 2)
    assert search.called and g._adjacency is None


def test_boundary_pair_fraction_matches_exact_counts_on_the_dense_law():
    # on {1,4,10} at n=2e3 short cycles send many roots to the per-root
    # search; the pair fraction is the one the exact counts give
    from cmgiant import boundary_pair_fraction

    pmf = Pmf((1, 4, 10), (0.4, 0.3, 0.3))
    g = pair_half_edges(sample_iid_degrees(pmf, 2000, np.random.default_rng(5)), np.random.default_rng(5))
    cs = component_decomposition(g)
    # breadth-first distances up to 3 from every vertex, inf beyond
    adjacency = csr_matrix((np.ones(g.num_half_edges), (g.owner, g.owner[g.mate])), shape=(g.n, g.n))
    dist = dijkstra(adjacency, unweighted=True, limit=3)
    searched = 0
    for r in (1, 2, 3):
        passing = np.count_nonzero(dist == r, axis=1) >= r
        counts = np.bincount(cs.labels[passing], minlength=cs.num_clusters).astype(np.int64)
        s, q = int(counts.sum()), int(np.sum(counts * counts))
        with mock.patch.object(traversal, "_sphere_sizes", wraps=traversal._sphere_sizes) as search:
            assert boundary_pair_fraction(g, cs, r) == (s * s - q) / (g.n * g.n)
        searched += len(search.call_args.args[1])
    assert searched >= 100


@given(degree_lists(max_n=25), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_boundary_pair_fraction_matches_per_vertex_bfs(degrees, r, seed):
    from cmgiant import boundary_pair_fraction

    seq = DegreeSequence(np.array(degrees))
    g = pair_half_edges(seq, np.random.default_rng(seed))
    cs = component_decomposition(g)
    n = g.n
    dist = [distances_from(g, v) for v in range(n)]
    passing = [int(np.sum(dist[v] == r)) >= r for v in range(n)]
    count = 0
    for u in range(n):
        for v in range(n):
            if passing[u] and passing[v] and cs.labels[u] != cs.labels[v]:
                count += 1
    assert boundary_pair_fraction(g, cs, r) == pytest.approx(count / (n * n))


def test_largest_cluster_bounded_by_tail_mass(mixture_components, mixture_graph):
    # anything the giant holds is also counted by every tail Z_{>=k} it meets
    _, g = mixture_graph
    sizes = mixture_components.sizes
    gmax = int(sizes[0])
    for k in (1, 2, 5, 50, gmax):
        z_tail = int(np.sum(sizes[sizes >= k]))
        assert gmax <= z_tail


@given(degree_lists(), st.integers(0, 2**32 - 1))
def test_component_fuzz_bookkeeping(degrees, seed):
    seq = DegreeSequence(np.array(degrees))
    g = pair_half_edges(seq, np.random.default_rng(seed))
    cs = component_decomposition(g)
    assert int(cs.sizes.sum()) == g.n
    assert np.all(cs.sizes[:-1] >= cs.sizes[1:])
    assert giant_edges(cs, g.n) == min_label_decomposition(g)[1][0]
    # labels agree with sizes
    counted = np.bincount(cs.labels, minlength=cs.num_clusters)
    assert np.array_equal(counted, cs.sizes)
