"""Connected components and the pair statistics built on them."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_build import HalfEdgeGraph
from .traversal import boundary_counts


@dataclass
class ComponentSummary:
    """Component decomposition of a multigraph.

    Clusters are ranked by size, largest first; ties go to the cluster
    containing the smallest vertex id.

    Attributes:
        sizes: cluster sizes in rank order.
        per_cluster_edges: edge count per cluster (self-loops count once).
        labels: vertex -> cluster rank.
        degrees: vertex -> degree.
    """

    sizes: np.ndarray
    per_cluster_edges: np.ndarray
    labels: np.ndarray
    degrees: np.ndarray

    @property
    def num_clusters(self) -> int:
        return int(self.sizes.size)


def _component_ids(g: HalfEdgeGraph) -> tuple[np.ndarray, int]:
    """Number the m components of g 0..m-1 in the order of their smallest
    vertex; return (vertex -> component id, m).

    Min-label hooking with pointer jumping, in the style of Shiloach and
    Vishkin (1982). A round hooks every vertex under its smallest neighbour
    when that is smaller and jumps pointers until every tree is a star whose
    root is its smallest vertex. The first round runs on all n vertices;
    each later one runs only on the previous round's roots that still have
    an edge crossing to another tree (its live roots), numbered 0..k-1 in
    increasing order, and on those crossing edges. Numbering keeps order,
    so a root stays the smallest vertex of its tree; unwinding the rounds
    hands each live root the final root of its number in the next round.
    The final roots are ranked once, by scattering 0..m-1 over them.
    """
    # owner is nondecreasing in the half-edge label, so lo <= hi here; the
    # gathers are ordered so that at most three edge arrays are alive at once
    x = np.flatnonzero(np.arange(g.num_half_edges) < g.mate)
    hi = g.mate[x]
    lo = g.owner[x]
    del x
    hi = g.owner[hi]
    label = np.arange(g.n)
    # (label, live roots) of every round but the last
    rounds = []
    while True:
        np.minimum.at(label, hi, lo)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        del jumped
        lo = label[lo]
        hi = label[hi]
        cross = np.flatnonzero(lo != hi)
        if not cross.size:
            break
        u = lo.take(cross)
        del lo
        v = hi.take(cross)
        del hi, cross
        mark = np.zeros(label.size, dtype=bool)
        mark[u] = True
        mark[v] = True
        live = np.flatnonzero(mark)
        del mark
        rounds.append((label, live))
        # a root is its own label, so the live roots' slots can hold their
        # numbers in the next round until the unwinding overwrites them
        label[live] = np.arange(live.size)
        u = label[u]
        v = label[v]
        lo = np.minimum(u, v)
        hi = np.maximum(u, v, out=u)
        del u, v
        label = np.arange(live.size)
    del lo, hi
    while rounds:
        prev, live = rounds.pop()
        prev[live] = live[label]
        label = prev[prev]
        del prev, live
    roots = np.flatnonzero(label == np.arange(label.size))
    rename = np.empty(label.size, dtype=np.int64)
    rename[roots] = np.arange(roots.size)
    return rename[label], int(roots.size)


def component_decomposition(g: HalfEdgeGraph) -> ComponentSummary:
    """Decompose g into connected components by contracting min-label hooking.

    `_component_ids` numbers the components by their smallest vertex; one
    stable argsort of the negated sizes then ranks them by (-size, smallest
    vertex). The per-cluster edge counts come from one bincount of degrees
    over ranks.
    """
    ids, m = _component_ids(g)
    counts = np.bincount(ids, minlength=m)
    ranked = np.argsort(-counts, kind="stable")
    rank_of = np.empty(m, dtype=np.int64)
    rank_of[ranked] = np.arange(m, dtype=np.int64)
    labels = rank_of[ids]
    del ids
    sizes = counts[ranked]

    degrees = g.degrees()
    # Both half-edges of every edge lie inside its cluster.
    edges = np.bincount(labels, weights=degrees, minlength=m).astype(np.int64) // 2
    return ComponentSummary(sizes=sizes, per_cluster_edges=edges, labels=labels, degrees=degrees)


@dataclass(frozen=True)
class GiantStatistics:
    gmax_frac: float
    second_frac: float
    vk_frac: dict[int, float]
    edge_frac: float


def giant_statistics(cs: ComponentSummary, n: int) -> GiantStatistics:
    """Normalized statistics of the largest cluster."""
    gmax_frac = float(cs.sizes[0] / n)
    second_frac = float(cs.sizes[1] / n) if cs.num_clusters > 1 else 0.0
    hist = np.bincount(cs.degrees.compress(cs.labels == 0))
    vk = {int(k): int(hist[k]) / n for k in np.flatnonzero(hist)}
    edge_frac = float(cs.per_cluster_edges[0] / n)
    return GiantStatistics(gmax_frac, second_frac, vk, edge_frac)


@dataclass(frozen=True)
class SumSquaresRatio:
    all_clusters: float
    large_only: float


def sum_squares_ratio(cs: ComponentSummary, k: int, n: int) -> SumSquaresRatio:
    """sum_i |C_(i)|^2 / n^2, over all clusters and over clusters of size >= k."""
    sizes = cs.sizes
    total = int(np.sum(sizes * sizes))
    large = int(np.sum(sizes[sizes >= k] ** 2))
    nsq = n * n
    return SumSquaresRatio(all_clusters=total / nsq, large_only=large / nsq)


def _cross_cluster_fraction(counts: np.ndarray, n: int) -> float:
    """(S^2 - Q) / n^2 for per-cluster vertex counts with total S and sum of
    squares Q: the fraction of ordered pairs of counted vertices that lie in
    distinct clusters, over all n^2 ordered pairs."""
    s = int(counts.sum())
    q = int(np.sum(counts * counts))
    return (s * s - q) / (n * n)


def disconnected_pair_fraction(cs: ComponentSummary, k: int, n: int) -> float:
    """Fraction of ordered vertex pairs in distinct clusters of size >= k.

    Computed from cluster sizes alone: with S the total mass of clusters of
    size at least k and Q their sum of squares, the ordered-pair count is
    S^2 - Q.
    """
    return _cross_cluster_fraction(cs.sizes[cs.sizes >= k], n)


def boundary_pair_fraction(g: HalfEdgeGraph, cs: ComponentSummary, r: int) -> float:
    """Fraction of ordered pairs in distinct clusters, both with |∂B_r| >= r.

    Substitutes a local quantity (a fat distance-r boundary) for raw cluster
    size; the same cross-cluster pair count formula applies to the per-cluster
    counts of vertices passing the boundary test. cs is the decomposition of g.
    The test only asks whether |∂B_r| >= r, so it reads boundary_counts,
    which are saturated at r and exact below it: roots whose first walks of
    length r do not settle the test get a breadth-first search there.
    """
    bc = boundary_counts(g, r)
    passing = bc >= r
    counts = np.bincount(cs.labels[passing], minlength=cs.num_clusters).astype(np.int64)
    return _cross_cluster_fraction(counts, g.n)
