"""Slow reference computations shared by the test modules."""

from collections import deque

import numpy as np

from cmgiant import canonical_ball
from cmgiant.neighborhoods import OVERSIZE_BALL, CanonicalBall


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


def boundary_counts_bfs(g, r: int) -> np.ndarray:
    """|∂B_r(v)| for every vertex v, counted from single-source distances."""
    return np.array([int(np.sum(distances_from(g, v) == r)) for v in range(g.n)], dtype=np.int64)


def tree_code(children: list[list[int]], stubs) -> bytes:
    """AHU string of the stub-labelled tree rooted at 0.

    children[u] lists the children of u; every child is numbered above its
    parent, as in breadth-first order.
    """
    codes: list[bytes] = [b""] * len(stubs)
    for u in range(len(stubs) - 1, -1, -1):
        codes[u] = b"(%d%s)" % (stubs[u], b"".join(sorted(codes[w] for w in children[u])))
    return codes[0]


def ball_census(g, r: int, cap: int, labels=None):
    """Per-root census through canonical_ball; with labels, split into the
    roots labelled 0 and the rest."""
    parts: tuple[dict, dict] = ({}, {})
    for v in range(g.n):
        _, code = canonical_ball(g, v, r, cap)
        part = parts[labels is not None and int(labels[v]) != 0]
        part[code] = part.get(code, 0) + 1
    masses = tuple({code: c / g.n for code, c in part.items()} for part in parts)
    return masses if labels is not None else masses[0]


def bp_ball_census(spec, r: int, samples: int, rng, cap: int, chunk: int = 1 << 18):
    """The branching-process census grown one tree at a time, breadth first.

    Root and child draws come from two buffers on rng, each refilled with one
    rng.choice call of chunk draws when empty and popped from its end.
    """

    def buffer(pmf):
        support = np.array(pmf.support, dtype=np.int64)
        probs = np.array(pmf.probabilities)
        held: list[int] = []

        def take() -> int:
            if not held:
                held.extend(rng.choice(support, size=chunk, p=probs).tolist())
            return held.pop()

        return take

    root_draw, child_draw = buffer(spec.root_pmf), buffer(spec.shifted_pmf)
    counts: dict[bytes, int] = {}
    for _ in range(samples):
        depth, stub, children = [0], [0], [[]]
        oversize = False
        queue = deque([0])
        while queue and not oversize:
            u = queue.popleft()
            c = root_draw() if u == 0 else child_draw()
            if depth[u] == r:
                stub[u] = c
                continue
            for _ in range(c):
                if len(depth) == cap:
                    oversize = True
                    break
                w = len(depth)
                depth.append(depth[u] + 1)
                stub.append(0)
                children.append([])
                children[u].append(w)
                queue.append(w)
        code = OVERSIZE_BALL.code if oversize else b"T" + tree_code(children, stub)
        counts[code] = counts.get(code, 0) + 1
    return {CanonicalBall(code): c / samples for code, c in counts.items()}
