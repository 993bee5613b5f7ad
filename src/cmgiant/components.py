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


def _min_vertex_labels(g: HalfEdgeGraph) -> np.ndarray:
    """Label every vertex with the smallest vertex id in its component.

    Min-label hooking with pointer jumping, in the style of Shiloach and
    Vishkin (1982). `label` is a forest whose pointers never increase, and
    after each round of jumping every vertex points at its tree's root. Each
    round hooks, for every edge whose endpoints still have different roots,
    the larger root under the smaller one, then jumps until every tree is a
    star. Edges are carried as pairs of roots and dropped once both ends
    share one, so later rounds touch only the edges still crossing trees.
    """
    x = np.flatnonzero(np.arange(g.num_half_edges) < g.mate)
    u, v = g.owner[x], g.owner[g.mate[x]]
    label = np.arange(g.n, dtype=np.int64)
    while True:
        u, v = label[u], label[v]
        cross = u != v
        if not cross.any():
            return label
        u, v = np.minimum(u[cross], v[cross]), np.maximum(u[cross], v[cross])
        np.minimum.at(label, v, u)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def component_decomposition(g: HalfEdgeGraph) -> ComponentSummary:
    """Decompose g into connected components by label propagation.

    Every vertex is first labeled by the smallest vertex of its component
    (`_min_vertex_labels`). Components are ranked with one lexsort on
    (-size, smallest vertex); the per-cluster edge counts come from one
    bincount of degrees over ranks.
    """
    n = g.n
    root = _min_vertex_labels(g)
    counts = np.bincount(root, minlength=n)
    mins = np.flatnonzero(counts)
    ranked = mins[np.lexsort((mins, -counts[mins]))]
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[ranked] = np.arange(ranked.size, dtype=np.int64)
    labels = rank_of[root]
    sizes = counts[ranked]

    degrees = g.degrees()
    # Both half-edges of every edge lie inside its cluster.
    edges = np.bincount(labels, weights=degrees, minlength=sizes.size).astype(np.int64) // 2
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
    hist = np.bincount(cs.degrees[cs.labels == 0])
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


def disconnected_pair_fraction(cs: ComponentSummary, k: int, n: int) -> float:
    """Fraction of ordered vertex pairs in distinct clusters of size >= k.

    Computed from cluster sizes alone: with S the total mass of clusters of
    size at least k and Q their sum of squares, the ordered-pair count is
    S^2 - Q.
    """
    sizes = cs.sizes[cs.sizes >= k]
    s = int(sizes.sum())
    q = int(np.sum(sizes * sizes))
    return (s * s - q) / (n * n)


def boundary_pair_fraction(g: HalfEdgeGraph, cs: ComponentSummary, r: int) -> float:
    """Fraction of ordered pairs in distinct clusters, both with |∂B_r| >= r.

    Substitutes a local quantity (a fat distance-r boundary) for raw cluster
    size; the same cross-cluster pair count formula applies to the per-cluster
    counts of vertices passing the boundary test. cs is the decomposition of g.
    """
    bc = boundary_counts(g, r)
    passing = bc >= r
    counts = np.bincount(cs.labels[passing], minlength=cs.num_clusters).astype(np.int64)
    s = int(counts.sum())
    q = int(np.sum(counts * counts))
    n = g.n
    return (s * s - q) / (n * n)
