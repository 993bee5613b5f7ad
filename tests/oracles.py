"""Slow reference computations shared by the test modules."""

from collections import deque

import numpy as np

from cmgiant import canonical_ball
from cmgiant.neighborhoods import OVERSIZE_BALL


def edge_iter(g):
    """Yield each edge of g once as an ordered pair (u, v) with u <= v."""
    for x in range(g.num_half_edges):
        y = int(g.mate[x])
        if x < y:
            u = int(g.owner[x])
            v = int(g.owner[y])
            yield (u, v) if u <= v else (v, u)


def degree_in_ball(ball, v: int) -> int:
    """Half-edges of ball vertex v that stay inside the ball (a self-loop
    counts 2)."""
    return sum((a == v) + (b == v) for a, b in ball.edges)


def distances_from(g, v: int) -> np.ndarray:
    """Single-source breadth-first distances in g (-1 for unreachable).

    The neighbour lists come straight from g.owner and g.mate, one entry per
    half-edge in label order, so the reference does not rest on
    g.adjacency(), the view the searches it checks read.
    """
    owner = g.owner.tolist()
    nbrs = [[] for _ in range(g.n)]
    for x, y in enumerate(g.mate.tolist()):
        nbrs[owner[x]].append(owner[y])
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[v] = 0
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in nbrs[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def min_vertex_labels(g) -> np.ndarray:
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


def min_label_decomposition(g):
    """(sizes, edge count per cluster, labels, degrees) of g on the full vertex
    array: components labeled by `min_vertex_labels`, then ranked with one
    lexsort on (-size, smallest vertex)."""
    n = g.n
    root = min_vertex_labels(g)
    counts = np.bincount(root, minlength=n)
    mins = np.flatnonzero(counts)
    ranked = mins[np.lexsort((mins, -counts[mins]))]
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[ranked] = np.arange(ranked.size, dtype=np.int64)
    labels = rank_of[root]
    sizes = counts[ranked]
    degrees = g.degrees()
    edges = np.bincount(labels, weights=degrees, minlength=sizes.size).astype(np.int64) // 2
    return sizes, edges, labels, degrees


def truncate_explode_loop(degrees: list[int], b: int):
    """(truncated degrees, origin, half-edge relabeling) of truncating the
    degrees at b, one label at a time: the first b labels of a vertex keep
    their offsets in its truncated range, and every later label becomes the
    single label of the next new vertex, numbered from n on, scanning the
    vertices and their labels in increasing order."""
    kept = [min(d, b) for d in degrees]
    new_label = sum(kept)
    start = 0
    origin, relabeling = [], []
    for v, d in enumerate(degrees):
        for i in range(d):
            if i < b:
                relabeling.append(start + i)
            else:
                relabeling.append(new_label)
                new_label += 1
                origin.append(v)
        start += kept[v]
    return kept + [1] * len(origin), origin, relabeling


def boundary_counts_bfs(g, r: int) -> np.ndarray:
    """|∂B_r(v)| for every vertex v, counted from single-source distances."""
    return np.array([int(np.sum(distances_from(g, v) == r)) for v in range(g.n)], dtype=np.int64)


def walk_keys(g, roots, depth: int, cap: int | None = None) -> list[tuple[int, int, int]]:
    """Every non-backtracking walk of length depth or less from each root, as
    (root, endpoint, length): a depth-first search per root, which leaves
    each vertex by every half-edge but the one it came in on, in increasing
    order. With cap set, only the first cap walks of length depth >= 1 in
    that order are kept. The walks of a root are sorted, and the roots keep
    their order."""
    offsets, mate, owner = g.offsets.tolist(), g.mate.tolist(), g.owner.tolist()
    listed = []
    for v in np.asarray(roots).tolist():
        walks = []
        last = 0  # walks of length depth kept so far
        stack = [(v, -1, 0)]
        while stack:
            u, came, length = stack.pop()
            if length == depth > 0:
                if cap is not None and last == cap:
                    continue
                last += 1
            walks.append((u, length))
            if length < depth:
                for x in reversed(range(offsets[u], offsets[u + 1])):
                    if x != came:
                        stack.append((owner[mate[x]], mate[x], length + 1))
        listed.extend((v, w, length) for w, length in sorted(walks))
    return listed


def unimodular_bp_loop(spec, max_generation: int, cap: int, rng):
    """(sizes, total, truncated) of one two-stage tree, drawn as the per-tree
    loop draws it: rng.choice for the root, then rng.multinomial over the
    forward law for each nonempty generation before the cap, recorded or not."""
    support = np.array(spec.shifted_pmf.support)
    probs = np.array(spec.shifted_pmf.probabilities)
    sizes = [1]
    total = 1
    gen = int(rng.choice(np.array(spec.root_pmf.support), p=spec.root_pmf.probabilities))
    truncated = False
    for _ in range(max_generation):
        sizes.append(gen)
        total += gen
        if total >= cap:
            truncated = True
            break
        if gen:
            gen = int(rng.multinomial(gen, probs) @ support)
    return tuple(sizes), total, truncated


def offspring_generations_loop(spec, b0: int, generations: int, rng, cap=None):
    """(sizes, total, truncated) of the forward process from b0 individuals,
    one rng.multinomial per nonempty generation."""
    support = np.array(spec.shifted_pmf.support)
    probs = np.array(spec.shifted_pmf.probabilities)
    sizes = [b0]
    total = b0
    gen = b0
    truncated = False
    for _ in range(generations):
        if gen:
            gen = int(rng.multinomial(gen, probs) @ support)
        sizes.append(gen)
        total += gen
        if cap is not None and total >= cap:
            truncated = True
            break
    return tuple(sizes), total, truncated


def progeny_law_enumerated(spec, max_size: int) -> list[float]:
    """P(T = t) for t = 0..max_size, T the total progeny of the two-stage
    tree, summed over every breadth-first child-count sequence of a tree
    with at most max_size members: the root's count from the degree law,
    then one forward count per member in breadth-first order until every
    member has drawn."""
    forward = list(zip(spec.shifted_pmf.support, spec.shifted_pmf.probabilities))
    law = [0.0] * (max_size + 1)

    def grow(members, drawn, prob):
        if drawn == members:
            law[members] += prob
            return
        for c, p in forward:
            if members + c <= max_size:
                grow(members + c, drawn + 1, prob * p)

    for c, p in zip(spec.root_pmf.support, spec.root_pmf.probabilities):
        if 1 + c <= max_size:
            grow(1 + c, 1, p)
    return law


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


def bp_ball_census(spec, r: int, samples: int, rng, cap: int, batch: int):
    """The branching-process census grown one tree and one level at a time.

    Each batch of batch trees draws its root counts with one rng.choice call,
    then, per depth d = 1 .. r, the counts of the depth-d nodes of its trees
    still within cap nodes, tree by tree and parent by parent.
    """

    def draw(pmf, size: int) -> list[int]:
        return rng.choice(np.array(pmf.support), size=size, p=pmf.probabilities).tolist()

    counts: dict[bytes, int] = {}
    for done in range(0, samples, batch):
        trees = []  # per tree: child lists, stubs, last level's nodes
        for c in draw(spec.root_pmf, min(batch, samples - done)):
            trees.append(([[]], [c], [0]))
        alive = list(trees)
        for _ in range(r):
            grown = []
            for children, stubs, level in alive:
                nodes = len(stubs) + sum(stubs[u] for u in level)
                if nodes > cap:
                    stubs.clear()  # oversize
                    continue
                grown.append((children, stubs, level))
            alive = grown
            wanted = sum(stubs[u] for _, stubs, level in alive for u in level)
            it = iter(draw(spec.shifted_pmf, wanted))
            for children, stubs, level in alive:
                new = []
                for u in level:
                    for _ in range(stubs[u]):
                        children[u].append(len(stubs))
                        new.append(len(stubs))
                        children.append([])
                        stubs.append(next(it))
                    stubs[u] = 0
                level[:] = new
        for children, stubs, _ in trees:
            code = b"T" + tree_code(children, stubs) if stubs else OVERSIZE_BALL
            counts[code] = counts.get(code, 0) + 1
    return {code: c / samples for code, c in counts.items()}


def rows_reference(vals, base, length, skip=None) -> np.ndarray:
    """Classes of the ragged rows neighborhoods._rank_rows ranks, one column at a time.

    Row i holds vals[base[i] + j + (j >= skip[i])] for j < length[i]. The
    rows are put in order of decreasing length, so each column reaches a
    prefix of them; every column folds (class so far, entry) pairs with one
    np.unique, and the row length is folded in last.
    """
    base, length = np.asarray(base, dtype=np.int64), np.asarray(length, dtype=np.int64)
    skip = length if skip is None else np.asarray(skip, dtype=np.int64)
    order = np.argsort(-length, kind="stable")
    base, length, skip = base[order], length[order], skip[order]
    width = int(length[0]) if length.size else 0
    span = int(vals.max()) + 1 if vals.size else 1
    cls = np.zeros(length.size, dtype=np.int64)
    for j, k in enumerate(np.searchsorted(-length, -np.arange(width)).tolist()):
        entry = vals[base[:k] + j + (skip[:k] <= j)]
        cls[:k] = np.unique(cls[:k] * span + entry, return_inverse=True)[1]
    cls = np.unique(cls * (width + 1) + length, return_inverse=True)[1]
    classes = np.empty_like(cls)
    classes[order] = cls
    return classes
