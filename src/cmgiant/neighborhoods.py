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
copying plus the sorts. Otherwise what is left is the core: the root, the
vertices on cycles, self-loops or multi-edges, and the paths joining them.
Color refinement, seeded with (distance from root, degree inside the core,
loop count, stub count, folded color), then individualization inside
residual color classes give the core a canonical order, and the code is "G"
plus the core serialized in that order with every vertex's stubs and folded
color.

A ball gets the oversize code, OVERSIZE_BALL, when it has more vertices
than the ball vertex cap (extraction stops at the first vertex past it),
or when refinement leaves a class of more than CLASS_CAP interchangeable
core vertices (individualization is factorial in its size). Classes of
pendant vertices never count toward CLASS_CAP, so trees, including stars
of any width, always get an exact code.

The two censuses rank whole levels of trees at once with AHU's level step,
on arrays, and build the AHU string once per class a tree reaches, from the
leaves up. Both use one entry, _rank_level, which names each node's
multiset of child classes by a power sum: with radix the longest row + 1
and top the number of distinct classes, a multiset of classes is a
base-radix numeral, exact when radix**top < 2**62. One running sum over the
unsorted rows and one _rank call then rank a level, with no sort: _rank
uses a presence table when the sums span no more than their count (every
level of the {1, 3} law at r <= 2) and np.unique otherwise. Levels whose
sums would pass 62 bits (hubs, dense laws at r >= 2) sort each run, keep
one row of the rows that repeat a run less an equal class, and _rank_rows
ranks the rows of each length as one matrix. The two sides feed the kernel
as follows:

- Graph side. A tree test takes the sorted (root, endpoint, length) keys
  of every non-backtracking walk of length r + 1 or less from each root
  within cap, from the walk enumerator in traversal; a key that repeats
  with a walk of r steps or less marks a cycle, self-loop or multi-edge in
  the ball. The keys give each cyclic root the least radius at which its
  ball stops being a tree. When every root was within cap, the graph keeps
  those, and a census of it at a smaller radius enumerates nothing. A
  tree root's class then comes from r - 1 rounds of per-half-edge
  messages: a half-edge's class names the tree hanging from its far end,
  and each round ranks the classes of the far vertex's other half-edges,
  whose power sum is the far vertex's sum less the power of the half-edge
  the message arrived by. Only cyclic roots, and roots with more than cap
  walks of length r or less (a tree ball has exactly that many vertices),
  fall back to canonical_ball, one root at a time.
- Branching-process side. Trees grow in batches, level by level: one
  generator call draws the root child counts of a batch, and one per depth
  the child counts of the nodes at that depth, for the trees still within
  cap. When the widest tree the laws allow is within cap, no tree is
  counted: each depth draws the children of every node of the depth above.
  A level's counts give each of its nodes a row of the next level's
  classes, so the levels are ranked from the deepest up, as drawn.

Both sides give every tree the bytes canonical_code gives it, so the two
sides of a comparison share one code space. A code is a plain bytes value,
and a ball distribution maps codes to masses.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .components import ComponentSummary
from .graph_build import HalfEdgeGraph
from .local_limit import OffspringSpec
from .traversal import _check_radius, _check_vertex, _ragged, _tree_roots

DEFAULT_BALL_CAP = 1000
CLASS_CAP = 8
OVERSIZE_BALL = b"!oversize"
# The censuses work in pieces of a few 1e4 array entries: the allocator keeps
# the heap of the largest piece, which is what peak RSS then measures.
_BATCH_NODES = 1 << 15  # tree nodes a branching-process batch holds, about
_RANK_SLACK = 64  # _rank's presence table may exceed the key count by this


@dataclass(frozen=True)
class RootedBall:
    """A finite rooted multigraph with stub marks on its vertices.

    Vertices are 0 .. num_vertices-1 with 0 the root. Edges are an ordered
    multiset of pairs (i, j) with i <= j; a self-loop (i, i) counts 2 toward
    i's incident half-edges. stubs[i] counts half-edges of i that leave the
    ball. The radius is not stored: a census compares balls of one radius.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    stubs: tuple[int, ...]


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


def canonical_code(ball: RootedBall) -> bytes:
    """Canonical code of a rooted ball: bytes that start with b"T" for a tree
    and b"G" otherwise, or OVERSIZE_BALL past CLASS_CAP in the core."""
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
        return b"T" + _ahu(stubs[0], hanging[0])

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
    return b"G" + code


def _check_ball(r: int, cap: int) -> None:
    _check_radius(r)
    if cap < 1:
        raise ValueError(f"ball cap must be at least 1, got cap={cap}")


def extract_ball(
    g: HalfEdgeGraph, v: int, r: int, cap: int = DEFAULT_BALL_CAP
) -> RootedBall | None:
    """The radius-r ball of v in g, or None once breadth-first search finds
    a vertex past the cap: no ball of more than cap vertices is built.

    Vertices are numbered in discovery order over each vertex's half-edges.
    """
    _check_ball(r, cap)
    _check_vertex(g, v)
    offsets, nbr = g.adjacency()
    local = {v: 0}
    order = [v]
    start = 0
    for _ in range(r):
        level, start = order[start:], len(order)
        for u in level:
            for i in range(offsets[u], offsets[u + 1]):
                w = nbr[i]
                if w not in local:
                    if len(order) == cap:
                        return None
                    local[w] = len(order)
                    order.append(w)
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
    return RootedBall(num_vertices=len(order), edges=tuple(sorted(edges)), stubs=tuple(stubs))


def canonical_ball(g: HalfEdgeGraph, v: int, r: int, cap: int = DEFAULT_BALL_CAP) -> bytes:
    """The canonical_code of v's radius-r ball, or OVERSIZE_BALL when the
    ball has more than cap vertices."""
    ball = extract_ball(g, v, r, cap)
    return OVERSIZE_BALL if ball is None else canonical_code(ball)


BallDistribution = dict[bytes, float]


def _rank_rows(vals: np.ndarray, base, length, skip=None) -> tuple[np.ndarray, np.ndarray]:
    """Classes of ragged rows of sorted child classes, equal rows sharing a
    class, and one row of each class.

    Row i holds the length[i] entries vals[base[i] + j + (j >= skip[i])]: a
    sorted run that starts at base[i], with the entry at offset skip[i] left
    out (a skip of length[i] or more leaves nothing out, as do no skips).
    Only rows of one length can be equal, and they are the rows of a matrix:
    each length's rows are gathered once and ranked by one _rank call on
    their numerals in radix vals.max() + 1 when those stay below 2**62, or
    else by np.unique on the rows as byte strings. A level thus costs about
    its own entries. Classes are dense and carry no order.
    """
    radix = int(vals.max()) + 1 if vals.size else 1
    order = np.argsort(length, kind="stable")
    sizes = length[order]
    cuts = np.flatnonzero(np.diff(sizes, prepend=-1)).tolist()
    classes = np.empty(length.size, dtype=np.int64)
    bound = 0
    for lo, hi in zip(cuts, cuts[1:] + [sizes.size]):
        group, j = order[lo:hi], np.arange(sizes[lo])
        at = base[group, None] + j
        if skip is not None:
            at += j >= skip[group, None]
        rows = vals[at]
        if radix**j.size < 1 << 62:
            cls = _rank(rows @ radix**j)[0]
        else:
            cls = np.unique(rows.view(f"V{rows.itemsize * j.size}").ravel(), return_inverse=True)[1]
        classes[group] = bound + cls
        bound += int(cls.max()) + 1
    rep = np.empty(bound, dtype=np.int64)
    rep[classes] = np.arange(classes.size)
    return classes, rep


def _rank(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The class of each non-negative key, classes numbered in key order as
    np.unique's inverse numbers them, and one index holding each class.

    Keys below key.size + _RANK_SLACK are ranked with a presence table and
    its running sum: one pass, no sort, and a table at most _RANK_SLACK
    entries longer than the keys. Wider keys are sorted by np.unique.
    """
    top = int(key.max()) if key.size else -1
    if 0 <= top < key.size + _RANK_SLACK:
        seen = np.zeros(top + 1, dtype=bool)
        seen[key] = True
        ids = np.cumsum(seen) - 1
        cls = ids[key]
        first = np.empty(int(ids[-1]) + 1, dtype=np.int64)
        first[cls] = np.arange(key.size)
        return cls, first
    _, first, cls = np.unique(key, return_index=True, return_inverse=True)
    return cls, first


def _sorted_runs(values: np.ndarray, lengths: np.ndarray):
    """values with each run of lengths[i] consecutive entries sorted, and the
    sorted position of every entry: one stable sort of run * span + value."""
    span = int(values.max()) + 1 if values.size else 1
    perm = np.argsort(np.repeat(np.arange(lengths.size), lengths) * span + values, kind="stable")
    where = np.empty_like(perm)
    where[perm] = np.arange(perm.size)
    return values[perm], where


def _rank_level(vals: np.ndarray, counts: np.ndarray, rows=None, skip=None):
    """The class of each of a level's rows, equal multisets of child classes
    sharing a class, and the child classes of one row of each class.

    vals holds runs of counts[k] classes, in any order; row i is run rows[i]
    (run i when rows is None), less entry skip[i] when skips are given. With
    radix the longest run + 1 and digit[v] the rank of class v among the top
    distinct classes, the power sum of radix**digit over a row names its
    multiset exactly when radix**top < 2**62. A uint64 running sum over the
    runs gives every sum (a wrap-around cancels in the differences), and one
    _rank call ranks them. Wider levels sort their runs and rank one row of
    each (run, skipped class) pair with _rank_rows, so a hub of degree D
    whose half-edges fall in c classes costs about c * D entries, not D**2.
    """
    ends = np.cumsum(counts)
    starts = ends - counts
    radix = int(counts.max()) + 1 if counts.size else 1
    seen = np.zeros(int(vals.max()) + 1 if vals.size else 0, dtype=bool)
    seen[vals] = True
    top = int(np.count_nonzero(seen))
    if top < 62 and radix**top < 1 << 62:  # radix >= 2 when top > 0: no huge power
        power = np.zeros(seen.size, dtype=np.uint64)
        power[seen] = np.uint64(radix) ** np.arange(top, dtype=np.uint64)
        power = power[vals]
        total = np.zeros(vals.size + 1, dtype=np.uint64)
        np.cumsum(power, out=total[1:])
        key = total[ends]
        key[1:] -= key[:-1]  # each run starts where the one before ends
        if rows is not None:
            key = key[rows]
        if skip is not None:
            key -= power[skip]
        classes, rep = _rank(key.view(np.int64))
    else:
        vals, where = _sorted_runs(vals, counts)
        run = np.arange(counts.size) if rows is None else rows
        if skip is None:
            classes, rep = _rank_rows(vals, starts[run], counts[run])
        else:
            # rows of one run that skip equal classes are equal, so each
            # (run, skipped class) pair is ranked on one row of it
            skip = where[skip]
            pair, rep = _rank(run * (int(vals.max()) + 1) + vals[skip])
            run = run[rep]
            classes, first = _rank_rows(vals, starts[run], counts[run] - 1, skip[rep] - starts[run])
            classes, rep = classes[pair], rep[first]
            del pair, first  # freed before the gather below, where a level peaks
    # one row of each class, gathered at once
    run = rep if rows is None else rows[rep]
    length = counts[run] - (skip is not None)
    row, at = _ragged(starts[run], length)
    if skip is not None:
        at += at >= skip[rep][row]
    flat = vals[at].tolist()
    bounds = np.cumsum(length).tolist()
    return classes, [flat[i:j] for i, j in zip([0] + bounds, bounds)]


def _encode(levels: list[list[list[int]]], top: np.ndarray) -> tuple[np.ndarray, list[bytes]]:
    """Class ids of the top rows and the tree code bytes of each class.

    levels[k][c] lists the children of class c of level k: classes of level
    k - 1, or leaf values when k = 0; with no levels, top holds leaf values.
    The classes the top classes reach are found from the top down, and each
    gets its AHU string once, from the leaves up: a leaf's string is its
    stub count, every other node has no stubs.
    """
    ids, first = _rank(top)
    distinct = top[first].tolist()
    reached = [set(distinct)]
    for children in reversed(levels):
        reached.append({w for c in reached[-1] for w in children[c]})
    strings = {c: _ahu(c, []) for c in reached.pop()}
    for children, need in zip(levels, reversed(reached)):
        strings = {c: _ahu(0, [strings[w] for w in children[c]]) for c in need}
    return ids, [b"T" + strings[c] for c in distinct]


def _tally(counts: dict, ids: np.ndarray, codes: list) -> dict:
    """Add each class's count to counts under its code, in order of first occurrence."""
    sizes = np.bincount(ids, minlength=len(codes))
    first = np.full(len(codes), ids.size, dtype=np.int64)
    np.minimum.at(first, ids, np.arange(ids.size))
    present = np.flatnonzero(sizes)
    for k in present[np.argsort(first[present])].tolist():
        counts[codes[k]] = counts.get(codes[k], 0) + int(sizes[k])
    return counts


def _ball_classes(g: HalfEdgeGraph, r: int, cap: int) -> tuple[np.ndarray, list[bytes]]:
    """Class id of every root's radius-r ball, and the code bytes of each class."""
    _check_ball(r, cap)
    n, mate = g.n, g.mate
    degree = np.diff(g.offsets)
    far = g.owner[mate]
    tree = _tree_roots(g, r, cap)

    # a half-edge's class at level k names the tree hanging from its far end
    # when that end is at depth r - k: at depth r its stubs, inside the ball
    # the row of its other half-edges' classes one level down
    levels = []
    classes = degree[far] - 1
    for _ in range(r - 1):
        classes, children = _rank_level(classes, degree, far, mate)
        levels.append(children)
    if r:
        top, children = _rank_level(classes, degree, tree)
        levels.append(children)
    else:
        top = degree[tree]
    ids = np.empty(n, dtype=np.int64)
    ids[tree], codes = _encode(levels, top)
    index = {code: i for i, code in enumerate(codes)}
    rest = np.ones(n, dtype=bool)
    rest[tree] = False
    for v in np.flatnonzero(rest).tolist():
        code = canonical_ball(g, v, r, cap)
        if code not in index:
            index[code] = len(codes)
            codes.append(code)
        ids[v] = index[code]
    return ids, codes


def empirical_ball_distribution(
    g: HalfEdgeGraph, r: int, cap: int = DEFAULT_BALL_CAP
) -> BallDistribution:
    """Distribution of ball codes over all roots of g.

    A root whose ball is a tree of at most cap vertices gets its code from
    message classes: traversal._tree_roots finds the tree balls, reading
    the cycle radii cached on g by a test of every root at radius r or more
    if there is one, and r - 1 rounds give every half-edge the class of the
    tree hanging from its far end, each round ranking the multiset of
    classes of the far vertex's other half-edges. Every other root, cyclic
    or with more than cap walks of length r or less, goes through
    canonical_ball. The codes equal canonical_ball's for every root.
    """
    ids, codes = _ball_classes(g, r, cap)
    return {code: c / g.n for code, c in _tally({}, ids, codes).items()}


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
    """The per-root classes of empirical_ball_distribution, split by cs.labels."""
    ids, codes = _ball_classes(g, r, cap)
    inside = cs.labels == 0
    giant, other = _tally({}, ids[inside], codes), _tally({}, ids[~inside], codes)
    return RestrictedBallDistribution(
        giant={code: c / g.n for code, c in giant.items()},
        non_giant={code: c / g.n for code, c in other.items()},
    )


def _batch_trees(spec: OffspringSpec, r: int, cap: int) -> int:
    """Trees per batch of the branching-process census: about _BATCH_NODES
    nodes within depth r, counting at most cap per tree."""
    nodes = 1 + spec.root_pmf.mean() * sum(spec.nu**j for j in range(r))
    return max(1, int(_BATCH_NODES // min(cap, nodes)))


def bp_ball_distribution(
    spec: OffspringSpec,
    r: int,
    samples: int,
    rng: np.random.Generator,
    cap: int = DEFAULT_BALL_CAP,
) -> BallDistribution:
    """Distribution of depth-r tree codes under the two-stage process.

    Nodes at depth r draw their child count but keep it as a stub mark, the
    exact analogue of a graph vertex on the ball's boundary. Trees are coded
    by the AHU rule that canonical_code applies to tree balls, so a tree and
    an isomorphic graph ball share one code. Trees of more than cap nodes
    within depth r count as oversize.

    Trees grow in batches, level by level. A batch makes one rng.random call
    for its roots, then one per depth d = 1 .. r for the child counts of the
    depth-d nodes of its trees still within cap, in (tree, parent, child)
    order; the law's Pmf.sample turns each uniform into a support value. A
    tree whose nodes within depth d pass cap is oversize and draws nothing
    more. When no tree can pass cap, as 1 + (largest root count) * (1 + M +
    ... + M**(r - 1)) <= cap with M the largest child count, the trees are
    not counted: each depth draws the children of every node above it,
    which are the same draws. The levels of a batch are then ranked from
    depth r up.
    """
    _check_ball(r, cap)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got samples={samples}")
    root, child = spec.root_pmf, spec.shifted_pmf
    batch = _batch_trees(spec, r, cap)
    # when the widest tree the laws allow is within cap, no tree is counted
    fits = 1 + root.support[-1] * sum(child.support[-1] ** j for j in range(r)) <= cap
    counts: dict[bytes, int] = {}
    for done in range(0, samples, batch):
        size = min(batch, samples - done)
        # levels[d] holds the child counts of the depth-d nodes; the last
        # level of an oversize tree counts no children, so each level's
        # counts add up to the next level's length
        levels = [root.sample(size, rng)]
        over = np.zeros(size, dtype=bool)
        nodes = np.ones(size, dtype=np.int64)  # within depth d, per tree
        width = np.ones(size, dtype=np.int64)  # depth-d nodes, per tree
        for _ in range(r):
            if not fits:
                # each tree's children: the counts of its width nodes, summed
                ends = np.cumsum(np.concatenate(([0], levels[-1])))[np.cumsum(width)]
                kids = np.diff(ends, prepend=0)
                nodes += kids
                over = nodes > cap
                levels[-1][np.repeat(over, width)] = 0
                width = np.where(over, 0, kids)
            levels.append(child.sample(int(levels[-1].sum()), rng))
        rows = []
        classes = levels.pop()
        while levels:
            classes, children = _rank_level(classes, levels.pop())
            rows.append(children)
        fit = ~over
        fit_ids, codes = _encode(rows, classes[fit])
        ids = np.full(size, len(codes))
        ids[fit] = fit_ids
        _tally(counts, ids, codes + [OVERSIZE_BALL])
    return {code: c / samples for code, c in counts.items()}


def tv_distance(a: BallDistribution, b: BallDistribution) -> float:
    """Total variation distance between two code distributions.

    math.fsum rounds the sum exactly, so the result does not depend on the
    iteration order of the key set (which follows the string hash seed).
    """
    keys = set(a) | set(b)
    return 0.5 * math.fsum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)

