"""Breadth-first primitives shared by the statistics modules.

All loops run over the flat adjacency lists cached on the graph, with an
integer stamp array instead of per-call visited sets so that sweeping every
vertex of a large graph stays cheap.
"""
from __future__ import annotations

import numpy as np

from .graph_build import HalfEdgeGraph


def boundary_counts(g: HalfEdgeGraph, r: int) -> np.ndarray:
    """|∂B_r(v)| for every vertex v: the number of vertices at distance exactly r."""
    n = g.n
    offsets, nbr = g.adjacency()
    out = np.zeros(n, dtype=np.int64)
    if r == 0:
        out[:] = 1
        return out
    mark = [-1] * n
    for v in range(n):
        mark[v] = v
        frontier = [v]
        depth = 0
        while frontier and depth < r:
            nxt = []
            for u in frontier:
                for i in range(offsets[u], offsets[u + 1]):
                    w = nbr[i]
                    if mark[w] != v:
                        mark[w] = v
                        nxt.append(w)
            frontier = nxt
            depth += 1
        out[v] = len(frontier)
    return out


def pair_distance(g: HalfEdgeGraph, a: int, b: int) -> int | None:
    """Graph distance between a and b, or None when they are disconnected.

    Bidirectional search: grows the smaller frontier, so pairs in the same
    well-connected component meet after exploring far fewer vertices than a
    one-sided sweep.
    """
    if a == b:
        return 0
    offsets, nbr = g.adjacency()
    dist_a = {a: 0}
    dist_b = {b: 0}
    frontier_a = [a]
    frontier_b = [b]
    depth_a = depth_b = 0
    while frontier_a and frontier_b:
        if len(frontier_a) <= len(frontier_b):
            frontier, dist_here, dist_other = frontier_a, dist_a, dist_b
            depth_a += 1
            depth_new = depth_a
        else:
            frontier, dist_here, dist_other = frontier_b, dist_b, dist_a
            depth_b += 1
            depth_new = depth_b
        nxt = []
        best = None
        for u in frontier:
            for i in range(offsets[u], offsets[u + 1]):
                w = nbr[i]
                if w in dist_other:
                    total = depth_new + dist_other[w]
                    if best is None or total < best:
                        best = total
                if w not in dist_here:
                    dist_here[w] = depth_new
                    nxt.append(w)
        if best is not None:
            return best
        if frontier is frontier_a:
            frontier_a = nxt
        else:
            frontier_b = nxt
    return None
