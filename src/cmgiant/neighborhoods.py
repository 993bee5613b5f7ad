"""Rooted neighborhoods, canonical codes, and ball distributions.

A radius-r ball keeps every vertex within distance r of the root and every
edge whose two endpoints both lie in the ball (multiplicities and self-loops
included). Each vertex also records how many of its half-edges leave the
ball; those stubs let a radius-0 ball remember the root's degree, matching
what the branching-process side of the comparison knows about its leaves.

Canonical codes name rooted isomorphism classes (root and stub marks
preserved) exactly. The encoder first folds pendant trees: it strips non-root
vertices of ball-degree 1 again and again, gives each stripped vertex the AHU
string (Aho, Hopcroft and Ullman, 1974) of the tree hanging from it, labelled
by stub counts, and adds that string to its parent's color, a sorted
multiset. When only a loop-free root is left the ball is a tree, and its code
is "T" plus the root's AHU string, found with no search. A pendant tree is
no deeper than the radius r, so a ball of n vertices costs O(r n) bytes of
copying plus the sorts. The branching-process census encodes its sampled
trees with the same rule, so the two sides of a comparison share one code
space. Otherwise what is left is the core: the root, the vertices on cycles,
self-loops or multi-edges, and the paths joining them. Color refinement,
seeded with (distance from root, degree inside the core, loop count, stub
count, folded color), then individualization inside residual color classes
give the core a canonical order, and the code is "G" plus the core
serialized in that order with every vertex's stubs and folded color.

A ball gets the oversize code when extraction hits the ball vertex cap,
or when refinement leaves a class of more than CLASS_CAP interchangeable
core vertices (individualization is factorial in its size). Classes of
pendant vertices never count toward CLASS_CAP, so trees, including stars of
any width, always get an exact code.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .components import ComponentSummary
from .graph_build import HalfEdgeGraph
from .local_limit import OffspringSpec

DEFAULT_BALL_CAP = 1000
CLASS_CAP = 8
_OVERSIZE = b"!oversize"


@dataclass(frozen=True)
class RootedBall:
    """A finite rooted multigraph with stub marks on its vertices.

    Vertices are 0 .. num_vertices-1 with 0 the root. Edges are an ordered
    multiset of pairs (i, j) with i <= j; a self-loop (i, i) counts 2 toward
    i's incident half-edges. stubs[i] counts half-edges of i that leave the
    ball.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    stubs: tuple[int, ...]
    radius: int
    boundary_size: int

    def degree_in_ball(self, v: int) -> int:
        d = 0
        for a, b in self.edges:
            d += (a == v) + (b == v)
        return d


@dataclass(frozen=True)
class CanonicalBall:
    """Byte code naming a rooted isomorphism class; hashable and comparable."""

    code: bytes

    @property
    def oversize(self) -> bool:
        return self.code == _OVERSIZE


OVERSIZE_BALL = CanonicalBall(_OVERSIZE)


def _ball_structure(ball: RootedBall):
    """Adjacency dicts, loop counts, and root distances of a ball."""
    n = ball.num_vertices
    nbr: list[dict[int, int]] = [dict() for _ in range(n)]
    loops = [0] * n
    for a, b in ball.edges:
        if a == b:
            loops[a] += 1
        else:
            nbr[a][b] = nbr[a].get(b, 0) + 1
            nbr[b][a] = nbr[b].get(a, 0) + 1
    dist = [-1] * n
    dist[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in nbr[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    if any(d < 0 for d in dist):
        raise ValueError("ball is not connected to its root")
    return nbr, loops, dist


def _ahu(stubs: int, child_codes: list[bytes]) -> bytes:
    """AHU string of a tree vertex: its stubs, then its children's strings sorted."""
    return b"(%d%s)" % (stubs, b"".join(sorted(child_codes)))


def _tree_code(children: list[list[int]], stubs) -> bytes:
    """AHU string of the stub-labelled tree rooted at 0.

    children[u] lists the children of u; every child is numbered above its
    parent, as in breadth-first order.
    """
    codes: list[bytes] = [b""] * len(stubs)
    for u in range(len(stubs) - 1, -1, -1):
        codes[u] = _ahu(stubs[u], [codes[w] for w in children[u]])
    return codes[0]


def _dense_ranks(keys: list) -> list[int]:
    order = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


def _refine(ranks: list[int], nbr: list[dict[int, int]]) -> list[int]:
    """Iterate neighborhood signatures until the partition stabilizes."""
    classes = len(set(ranks))
    while True:
        sigs = [
            (
                ranks[u],
                tuple(sorted((ranks[v], m) for v, m in nbr[u].items())),
            )
            for u in range(len(ranks))
        ]
        ranks = _dense_ranks(sigs)
        new_classes = len(set(ranks))
        if new_classes == classes:
            return ranks
        classes = new_classes


def _canon_search(
    ranks: list[int], nbr: list[dict[int, int]], serialize
) -> bytes | None:
    """Individualization-refinement; None means a class exceeded CLASS_CAP."""
    ranks = _refine(ranks, nbr)
    members: dict[int, list[int]] = {}
    for v, rk in enumerate(ranks):
        members.setdefault(rk, []).append(v)
    target = None
    for rk in sorted(members):
        if len(members[rk]) > 1:
            target = members[rk]
            break
    if target is None:
        return serialize(ranks)
    if len(target) > CLASS_CAP:
        return None
    best: bytes | None = None
    for v in target:
        child = [(rk, 0 if u == v else 1) for u, rk in enumerate(ranks)]
        code = _canon_search(_dense_ranks(child), nbr, serialize)
        if code is None:
            return None
        if best is None or code < best:
            best = code
    return best


def canonical_code(ball: RootedBall) -> CanonicalBall:
    """Canonical byte code of a rooted ball; oversize past CLASS_CAP in the core."""
    nbr, loops, dist = _ball_structure(ball)
    stubs = ball.stubs
    degree = [sum(m.values()) + 2 * loops[u] for u, m in enumerate(nbr)]
    hanging: list[list[bytes]] = [[] for _ in range(ball.num_vertices)]
    pendant = [v for v in range(1, ball.num_vertices) if degree[v] == 1]
    while pendant:
        v = pendant.pop()
        (p,) = nbr[v]
        del nbr[p][v]
        degree[v] = 0  # v has left the core
        degree[p] -= 1
        hanging[p].append(_ahu(stubs[v], hanging[v]))
        if degree[p] == 1 and p != 0:
            pendant.append(p)
    if not degree[0]:
        return CanonicalBall(b"T" + _ahu(stubs[0], hanging[0]))

    # the core: the root and every vertex that was not stripped
    core = [v for v, d in enumerate(degree) if d]
    index = {v: i for i, v in enumerate(core)}
    core_nbr = [{index[w]: m for w, m in nbr[v].items()} for v in core]
    edges = [
        (index[v], index[w], m) for v in core for w, m in nbr[v].items() if v < w
    ]
    edges += [(index[v], index[v], loops[v]) for v in core if loops[v]]
    marks = [(stubs[v], b"".join(sorted(hanging[v]))) for v in core]

    def serialize(position: list[int]) -> bytes:
        placed = sorted(
            (min(position[a], position[b]), max(position[a], position[b]), m)
            for a, b, m in edges
        )
        ordered: list = [None] * len(core)
        for i, p in enumerate(position):
            ordered[p] = marks[i]
        return repr((tuple(placed), tuple(ordered))).encode()

    seeds = [(dist[v], degree[v], loops[v], marks[i]) for i, v in enumerate(core)]
    code = _canon_search(_dense_ranks(seeds), core_nbr, serialize)
    if code is None:
        return OVERSIZE_BALL
    return CanonicalBall(b"G" + code)


def extract_ball(
    g: HalfEdgeGraph, v: int, r: int, cap: int = DEFAULT_BALL_CAP
) -> tuple[RootedBall, bool]:
    """The radius-r ball of v in g; the flag reports a cap overflow."""
    offsets, nbr = g.adjacency()
    dist = {v: 0}
    order = [v]
    queue = deque([v])
    overflow = False
    while queue:
        u = queue.popleft()
        if dist[u] == r:
            break
        for i in range(offsets[u], offsets[u + 1]):
            w = nbr[i]
            if w not in dist:
                if len(order) == cap:
                    overflow = True
                    queue.clear()
                    break
                dist[w] = dist[u] + 1
                order.append(w)
                queue.append(w)
        if overflow:
            break
    local = {u: i for i, u in enumerate(order)}
    edges = []
    stubs = [0] * len(order)
    # Each edge is counted from its endpoint of lower local index; a
    # self-loop puts u twice in u's own list.
    for lu, u in enumerate(order):
        loops = 0
        for i in range(offsets[u], offsets[u + 1]):
            lw = local.get(nbr[i])
            if lw is None:
                stubs[lu] += 1
            elif lw > lu:
                edges.append((lu, lw))
            elif lw == lu:
                loops += 1
        edges.extend([(lu, lu)] * (loops // 2))
    boundary = sum(1 for u in order if dist[u] == r)
    ball = RootedBall(
        num_vertices=len(order),
        edges=tuple(sorted(edges)),
        stubs=tuple(stubs),
        radius=r,
        boundary_size=boundary,
    )
    return ball, overflow


def canonical_ball(
    g: HalfEdgeGraph, v: int, r: int, cap: int = DEFAULT_BALL_CAP
) -> tuple[RootedBall, CanonicalBall]:
    """Extract and encode the radius-r ball of v.

    Balls that would exceed cap vertices come back truncated with the
    distinguished oversize code.
    """
    ball, overflow = extract_ball(g, v, r, cap)
    if overflow:
        return ball, OVERSIZE_BALL
    return ball, canonical_code(ball)


BallDistribution = dict[CanonicalBall, float]


def empirical_ball_distribution(
    g: HalfEdgeGraph,
    r: int,
    sample_size: int | None = None,
    rng: np.random.Generator | None = None,
    cap: int = DEFAULT_BALL_CAP,
) -> BallDistribution:
    """Distribution of ball codes over roots of g.

    sample_size None sweeps every vertex; otherwise roots are drawn i.i.d.
    uniformly (rng required).
    """
    if sample_size is None:
        roots = range(g.n)
        total = g.n
    else:
        if rng is None:
            raise ValueError("sampling roots needs an rng")
        roots = rng.integers(0, g.n, size=sample_size).tolist()
        total = sample_size
    counts: dict[CanonicalBall, int] = {}
    for v in roots:
        _, code = canonical_ball(g, int(v), r, cap)
        counts[code] = counts.get(code, 0) + 1
    return {code: c / total for code, c in counts.items()}


@dataclass(frozen=True)
class RestrictedBallDistribution:
    """Ball-code masses split by membership in the largest cluster.

    Masses are per vertex of the whole graph, so giant sums to the giant
    fraction, non_giant to its complement, and key-by-key the two add up to
    the unrestricted distribution.
    """

    giant: BallDistribution
    non_giant: BallDistribution


def restricted_ball_distribution(
    g: HalfEdgeGraph,
    r: int,
    cs: ComponentSummary,
    cap: int = DEFAULT_BALL_CAP,
) -> RestrictedBallDistribution:
    giant_counts: dict[CanonicalBall, int] = {}
    other_counts: dict[CanonicalBall, int] = {}
    labels = cs.labels
    n = g.n
    for v in range(n):
        _, code = canonical_ball(g, v, r, cap)
        bucket = giant_counts if labels[v] == 0 else other_counts
        bucket[code] = bucket.get(code, 0) + 1
    return RestrictedBallDistribution(
        giant={code: c / n for code, c in giant_counts.items()},
        non_giant={code: c / n for code, c in other_counts.items()},
    )


class _DrawBuffer:
    """Buffered i.i.d. draws from a small integer pmf."""

    def __init__(self, support, probabilities, rng: np.random.Generator, chunk: int = 1 << 18):
        self._support = np.array(support, dtype=np.int64)
        self._probs = np.array(probabilities)
        self._rng = rng
        self._chunk = chunk
        self._buf: list[int] = []

    def take(self) -> int:
        if not self._buf:
            self._buf = self._rng.choice(
                self._support, size=self._chunk, p=self._probs
            ).tolist()
        return self._buf.pop()


def bp_ball_distribution(
    spec: OffspringSpec,
    r: int,
    samples: int,
    rng: np.random.Generator,
    cap: int = DEFAULT_BALL_CAP,
) -> BallDistribution:
    """Distribution of depth-r tree codes under the two-stage process.

    Nodes at depth r draw their child count but keep it as a stub mark, the
    exact analogue of a graph vertex on the ball's boundary. Each sampled
    tree is encoded by the same AHU rule that canonical_code applies to tree
    balls, so a tree and an isomorphic graph ball share one code. Trees that
    would exceed cap nodes count as oversize.
    """
    root_draws = _DrawBuffer(spec.root_pmf.support, spec.root_pmf.probabilities, rng)
    child_draws = _DrawBuffer(
        spec.shifted_pmf.support, spec.shifted_pmf.probabilities, rng
    )
    counts: dict[bytes, int] = {}
    for _ in range(samples):
        depth: list[int] = [0]
        stub: list[int] = [0]
        children: list[list[int]] = [[]]
        oversize = False
        queue = deque([0])
        while queue and not oversize:
            u = queue.popleft()
            c = root_draws.take() if u == 0 else child_draws.take()
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
        code = _OVERSIZE if oversize else b"T" + _tree_code(children, stub)
        counts[code] = counts.get(code, 0) + 1
    return {CanonicalBall(code): c / samples for code, c in counts.items()}


def tv_distance(a: BallDistribution, b: BallDistribution) -> float:
    """Total variation distance between two code distributions.

    math.fsum rounds the sum exactly, so the result does not depend on the
    iteration order of the key set (which follows the string hash seed).
    """
    keys = set(a) | set(b)
    return 0.5 * math.fsum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)

