"""Graph walks shared by the statistics modules.

Non-backtracking walks, on arrays. A walk leaves each vertex by any
half-edge but the one it came in on, so it may turn round a self-loop or a
parallel edge but not step straight back. _walk_counts counts the walks from
every vertex with a per-half-edge recurrence, and _walk_keys lists them, a
chunk of roots at a time, as sorted (root, endpoint, length) keys packed
into one int64 each: root index, then endpoint, then length, in bit fields
that shifts and masks read back. After its first step a walk takes deg - 1
slots at the vertex it reached and steps over the half-edge it arrived by.
boundary_counts reads distances off those keys, listing only the first r
walks of length r from each root since its counts saturate at r, and
_tree_roots reads cycles off them for the graph-side ball census
(neighborhoods); when they cover every root, the graph caches each
cyclic root's cycle radius for the censuses at smaller radii.

pair_distance is a bidirectional breadth-first search over the adjacency
memoryviews cached on the graph, which read its int64 arrays as Python ints,
with a set of visited vertices per side; it stops at the first vertex where
the two sides meet.
"""
from __future__ import annotations

import numpy as np

from .graph_build import HalfEdgeGraph

# Walk keys come in pieces of a few 1e4 entries: the allocator keeps the heap
# of the largest piece, which is what peak RSS then measures.
_WALK_BUDGET = 1 << 15  # walks per chunk of roots
_WALK_CLIP = 1 << 30  # walk counts saturate here


def _check_radius(r: int) -> None:
    if r < 0:
        raise ValueError(f"radius r must be nonnegative, got r={r}")


def _check_vertex(g: HalfEdgeGraph, v: int, name: str = "v") -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {name}={v} is not in the graph's 0 .. n-1, n={g.n}")


def _ragged(starts: np.ndarray, lengths: np.ndarray):
    """Row and value of every entry of the ranges starts[i] .. starts[i] + lengths[i] - 1."""
    row = np.repeat(np.arange(lengths.size), lengths)
    offset = starts - (np.cumsum(lengths) - lengths)
    return row, np.arange(row.size) + np.repeat(offset, lengths)


def _walk_counts(g: HalfEdgeGraph, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-backtracking walks from every vertex: those of length r or less,
    the empty walk included, and those of length r + 1.

    A walk that starts along half-edge x goes on along any other half-edge
    of x's far end, so the walks of each length along x are the far end's
    walks one step shorter, less those that start back along mate[x].
    Counts saturate: one of _WALK_CLIP or more is only a lower bound.
    """
    n, offsets, mate = g.n, g.offsets, g.mate
    far = g.owner[mate]
    walks = np.ones(n, dtype=np.int64)
    step = np.diff(offsets)
    out_walks = np.ones(mate.size, dtype=np.int64)
    for _ in range(r):
        walks += step
        out_walks = np.minimum(step[far] - out_walks[mate], _WALK_CLIP)
        total = np.concatenate(([0], np.cumsum(out_walks)))
        step = total[offsets[1:]] - total[offsets[:-1]]
    return walks, step


def _vertex_bits(n: int) -> int:
    """Bits of a vertex field in a walk key."""
    return max(n - 1, 1).bit_length()


def _first_per_run(run: np.ndarray, width: np.ndarray, cap: int) -> np.ndarray:
    """width clipped so that each run of equal, adjacent run values keeps
    only its first cap units, in order."""
    before = np.cumsum(width) - width
    head = np.ones(run.size, dtype=bool)
    head[1:] = run[1:] != run[:-1]
    start = np.maximum.accumulate(np.where(head, before, 0))
    return np.clip(start + cap - before, 0, width)


def _walk_keys(
    g: HalfEdgeGraph, roots: np.ndarray, depth: int, cost: np.ndarray, budget: int, cap: int | None = None
):
    """Sorted keys of the non-backtracking walks of length depth or less.

    Roots go in consecutive chunks roots[lo:hi] of about budget walks, at
    least one root each, where roots[i] has cost[i] walks. Each chunk
    yields lo, hi and two arrays: a walk of length l from roots[lo + i] to
    vertex w is the entry pair = i << _vertex_bits(n) | w, length = l, and
    the entries are sorted by pair, then length. They come from one sort of
    the keys pair << lb | l, with lb = depth.bit_length(); a chunk whose
    keys would pass 63 bits raises OverflowError.

    The first step leaves the root by each of its half-edges. Each later
    step takes deg - 1 slots at the vertex the walk arrived at and skips the
    arrival half-edge: slot j is half-edge offsets[v] + j, plus one once
    that reaches the arrival half-edge. So each level lists a root's walks
    together, in the order of the half-edges they take.

    With cap set and depth at least 1, only the first cap walks of length
    depth of each root are listed, and cost must count them so; shorter
    walks are all listed.
    """
    n, offsets, mate, owner = g.n, g.offsets, g.mate, g.owner
    degree = np.diff(offsets)
    vb, lb = _vertex_bits(n), depth.bit_length()
    bound = np.cumsum(cost)
    lo = 0
    while lo < roots.size:
        hi = int(np.searchsorted(bound, bound[lo] - cost[lo] + budget, "right"))
        hi = max(hi, lo + 1)
        if (hi - lo) << (vb + lb) > 1 << 63:
            raise OverflowError(f"keys of {hi - lo} roots, {n} vertices, depth {depth} pass 63 bits")
        # who holds a walk's root index, shifted into place
        who = np.arange(hi - lo, dtype=np.int64) << (vb + lb)
        at = roots[lo:hi]
        keys = [who | at << lb]
        for length in range(1, depth + 1):
            width = degree[at] - (length > 1)
            if length == depth and cap is not None:
                width = _first_per_run(who, width, cap)
            row, out = _ragged(offsets[at], width)
            if length > 1:
                out += out >= came[row]
            who, came = who[row], mate[out]
            at = owner[came]
            keys.append(who | at << lb | length)
        keys = np.sort(np.concatenate(keys))
        yield lo, hi, keys >> lb, keys & ((1 << lb) - 1)
        lo = hi


def _cycle_radii(g: HalfEdgeGraph, roots: np.ndarray, r: int, cost: np.ndarray):
    """The roots, in increasing order, whose radius-r ball is not a tree, and
    each one's cycle radius: the least radius at which its ball stops being a
    tree. cost[i] counts the walks of length r + 1 or less from roots[i].

    The radius-s ball holds a cycle, self-loop or multi-edge exactly when
    the root's walk keys repeat a (root, endpoint) pair with walks of
    lengths a <= b, a <= s and b <= s + 1. The keys of a pair are sorted by
    length, so its first two give its least such s, max(a, b - 1).
    """
    vb = _vertex_bits(g.n)
    # one byte a root while r + 1 fits in one
    least = np.full(roots.size, r + 1, dtype=np.int8 if r < 127 else np.int64)
    for lo, _, pair, length in _walk_keys(g, roots, r + 1, cost, _WALK_BUDGET):
        twice = np.flatnonzero((pair[1:] == pair[:-1]) & (length[:-1] <= r))
        np.minimum.at(least, lo + (pair[twice] >> vb), np.maximum(length[twice], length[twice + 1] - 1))
    cyclic = np.flatnonzero(least <= r)
    return roots[cyclic], least[cyclic]


def _tree_roots(g: HalfEdgeGraph, r: int, cap: int) -> np.ndarray:
    """The roots, in increasing order, whose radius-r ball is a tree of at
    most cap vertices: as many as the root's walks of length r or less.

    A tree test at radius r0 that covered every root, each within the cap
    at r0, serves every radius up to r0 under any cap: the graph caches r0
    and the cyclic roots with their cycle radius (_cycle_radii). A call
    that no such test serves tests the roots within its cap at r and
    caches that test only when it covered every root.
    """
    walks, step = _walk_counts(g, r)
    small = walks <= cap
    if g._cycles is not None and g._cycles[0] >= r:
        _, cyclic, radius = g._cycles
    else:
        roots = np.flatnonzero(small)
        cyclic, radius = _cycle_radii(g, roots, r, walks[roots] + step[roots])
        if roots.size == g.n:
            g._cycles = (r, cyclic, radius)
    small[cyclic[radius <= r]] = False
    return np.flatnonzero(small)


def boundary_counts(g: HalfEdgeGraph, r: int) -> np.ndarray:
    """min(|∂B_r(v)|, r) for every vertex v: the number of vertices at
    distance exactly r, saturated at r.

    The almost-local criterion only asks whether |∂B_r(v)| >= r, so a count
    stops at r. A shortest path is a non-backtracking walk, so d(v, w) is
    the length of the shortest non-backtracking walk from v to w.
    _walk_keys sorts the keys of every walk of length below r and of the
    first r walks of length r, and the endpoints whose first key has length
    r are at distance r: a lower bound on |∂B_r(v)|, exact when v has r
    walks of length r or fewer. A root whose bound falls short of r after
    the cut, or that has more walks to list than g has half-edges, more
    than a breadth-first search from it can touch, gets that search
    instead.
    """
    _check_radius(r)
    if r == 0:
        return np.zeros(g.n, dtype=np.int64)
    shorter, last = _walk_counts(g, r - 1)
    cost = shorter + np.minimum(last, r)
    # counts at _WALK_CLIP or more are saturated, so the bound stays below it
    few = cost <= min(g.num_half_edges, _WALK_CLIP - 1)
    roots = np.flatnonzero(few)
    out = np.zeros(g.n, dtype=np.int64)
    vb = _vertex_bits(g.n)
    for lo, hi, pair, length in _walk_keys(g, roots, r, cost[roots], _WALK_BUDGET, r):
        first = np.ones(pair.size, dtype=bool)
        first[1:] = pair[1:] != pair[:-1]
        out[roots[lo:hi]] = np.bincount(pair[first & (length == r)] >> vb, minlength=hi - lo)
    rest = np.flatnonzero(~few | ((last > r) & (out < r)))
    out[rest] = np.minimum(_sphere_sizes(g, rest, r), r)
    return out


def _sphere_sizes(g: HalfEdgeGraph, roots: np.ndarray, r: int) -> list[int]:
    """|∂B_r(v)| for each v in roots, by a breadth-first search from v that
    grows each level with a few array operations.

    A level's new vertices are deduplicated without a sort: each writes its
    position into slot, and a vertex keeps the one entry whose write held.
    """
    if not roots.size:
        return []
    offsets, mate, owner = g.offsets, g.mate, g.owner
    degree = np.diff(offsets)
    mark = np.full(g.n, -1, dtype=np.int64)
    slot = np.empty(g.n, dtype=np.int64)
    sizes = []
    for v in roots:
        mark[v] = v
        frontier = np.array([v])
        for _ in range(r):
            w = owner[mate[_ragged(offsets[frontier], degree[frontier])[1]]]
            w = w[mark[w] != v]
            at = np.arange(w.size)
            slot[w] = at
            frontier = w[slot[w] == at]
            mark[frontier] = v
        sizes.append(frontier.size)
    return sizes


def pair_distance(g: HalfEdgeGraph, a: int, b: int) -> int | None:
    """Graph distance between a and b, or None when they are disconnected.

    Bidirectional search: each level grows the smaller frontier, so pairs in
    the same well-connected component meet after exploring far fewer vertices
    than a one-sided sweep. The first meeting vertex gives the distance, the
    number of levels grown so far. Say side S grows to depth d_S while side O
    stands at depth d_O, and S meets a vertex w that O has reached. Had O
    reached w below depth d_O, it would have expanded w and so either met S
    at w's neighbour on S's frontier a level sooner or stamped that neighbour
    as its own, which it is not. So w sits at depth d_O from O, and every
    meeting vertex of the level gives the same total d_S + d_O.
    """
    _check_vertex(g, a, "a")
    _check_vertex(g, b, "b")
    if a == b:
        return 0
    offsets, nbr = g.adjacency()
    grow, wait = [a], [b]
    seen_grow, seen_wait = {a}, {b}
    levels = 0
    while grow and wait:
        if len(grow) > len(wait):
            grow, wait, seen_grow, seen_wait = wait, grow, seen_wait, seen_grow
        levels += 1
        nxt = []
        for u in grow:
            for w in nbr[offsets[u] : offsets[u + 1]]:
                if w not in seen_grow:
                    if w in seen_wait:
                        return levels
                    seen_grow.add(w)
                    nxt.append(w)
        grow = nxt
    return None
