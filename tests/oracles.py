"""Slow reference computations shared by the test modules."""

from collections import deque

import numpy as np


def distances_from(g, v: int) -> np.ndarray:
    """Single-source breadth-first distances in g (-1 for unreachable)."""
    offsets, nbr = g.adjacency()
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[v] = 0
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for i in range(offsets[u], offsets[u + 1]):
            w = nbr[i]
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist
