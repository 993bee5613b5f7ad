"""Hypothesis strategies shared across the test modules."""

import numpy as np
from hypothesis import strategies as st

from cmgiant import DegreeSequence, HalfEdgeGraph, Pmf


@st.composite
def pmf_dicts(draw, max_degree=8, allow_degenerate=False):
    support = draw(
        st.lists(
            st.integers(min_value=1, max_value=max_degree),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    if not allow_degenerate and support == [2]:
        support.append(1)
    weights = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0),
            min_size=len(support),
            max_size=len(support),
        )
    )
    total = sum(weights)
    return {k: w / total for k, w in zip(sorted(support), weights)}


@st.composite
def pmfs(draw, **kwargs):
    return Pmf.from_dict(draw(pmf_dicts(**kwargs)))


@st.composite
def degree_lists(draw, max_n=40, max_degree=7):
    degrees = draw(
        st.lists(
            st.integers(min_value=1, max_value=max_degree),
            min_size=2,
            max_size=max_n,
        )
    )
    if sum(degrees) % 2 == 1:
        degrees[0] += 1
    return degrees


@st.composite
def degree_sequences(draw, **kwargs):
    return DegreeSequence(draw(degree_lists(**kwargs)))


@st.composite
def loopy_graphs(draw):
    """Small multigraphs on a uniform pairing of their half-edges: vertices of
    degree 0, and at these sizes often self-loops and multi-edges."""
    degrees = draw(st.lists(st.integers(0, 5), min_size=1, max_size=10))
    if sum(degrees) % 2:
        degrees[-1] += 1
    labels = np.array(draw(st.permutations(range(sum(degrees)))), dtype=np.int64)
    mate = np.empty(labels.size, dtype=np.int64)
    mate[labels[0::2]], mate[labels[1::2]] = labels[1::2], labels[0::2]
    return HalfEdgeGraph(np.concatenate(([0], np.cumsum(degrees))), mate)


def graph_from_edges(n: int, edges) -> HalfEdgeGraph:
    """The multigraph on n vertices with the given (u, w) edges; each vertex
    labels its half-edges in edge order, and a self-loop takes two of them."""
    degrees = np.zeros(n, dtype=np.int64)
    for u, w in edges:
        degrees[u] += 1
        degrees[w] += 1
    offsets = np.concatenate(([0], np.cumsum(degrees)))
    free = offsets[:-1].tolist()
    mate = np.empty(int(offsets[-1]), dtype=np.int64)
    for u, w in edges:
        x = free[u]
        free[u] += 1
        y = free[w]
        free[w] += 1
        mate[x], mate[y] = y, x
    g = HalfEdgeGraph(offsets, mate)
    g.validate()
    return g


@st.composite
def hub_multigraphs(draw):
    """A hub of degree 30-300 with self-loops and one to three parallel
    edges to each of its spokes, chords between spokes, pendant paths off
    them, and a star of up to 80 leaves joined to a spoke by a path or left
    apart; beside them a cycle (a self-loop or a double edge when short) and
    an isolated vertex. A drawn seed sets the parallel edges and shuffles
    the vertex ids.

    Searches here cross levels of many vertices and of few, so
    pair_distance grows levels both ways, switches between them, and meets
    or exhausts a cluster in either kind of level.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spokes = draw(st.integers(10, 95))
    edges = [(0, s) for s in range(1, spokes + 1) for _ in range(rng.integers(1, 4))]
    loops = max(draw(st.integers(0, 4)), (31 - len(edges)) // 2)
    edges += [(0, 0)] * loops
    n = spokes + 1
    spoke = st.integers(1, spokes)
    edges += draw(st.lists(st.tuples(spoke, spoke), max_size=12))
    for s, length in draw(st.lists(st.tuples(spoke, st.integers(1, 6)), max_size=8)):
        path = [s, *range(n, n + length)]
        edges += zip(path, path[1:])
        n += length
    center, leaves = n, draw(st.integers(0, 80))
    edges += [(center, center + k) for k in range(1, leaves + 1)]
    n += 1 + leaves
    if draw(st.booleans()):
        path = [center, *range(n, n + draw(st.integers(0, 3))), draw(spoke)]
        edges += zip(path, path[1:])
        n += len(path) - 2
    cycle = draw(st.integers(1, 6))
    edges += [(n + k, n + (k + 1) % cycle) for k in range(cycle)]
    n += cycle + 1
    perm = rng.permutation(n).tolist()
    return graph_from_edges(n, [(perm[u], perm[w]) for u, w in edges])
