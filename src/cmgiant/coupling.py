"""Coupled exploration of a pairing alongside its branching approximation.

One run grows the component of a root breadth-first while a branching
process consumes the same randomness. At every step the next pending
half-edge x draws a partner y uniformly over all half-edge labels, paired
or not. The branching side always keeps the raw draw and gains
deg(owner(y)) - 1 children, which makes its offspring stream i.i.d. from
the size-biased-minus-one law of the degree sequence. The graph side keeps
y only when the draw is usable: hitting x itself or an already paired label
is a half-edge reuse and forces a uniform redraw among the remaining
unpaired labels (excluding x), while a usable draw landing on an already
visited vertex is a vertex reuse that closes a cycle and yields no new
vertices. The first step that is not clean, or where the two child counts
differ, is the moment the processes part ways.

A run is one loop that appends a TraceStep per pairing; the generation
sizes of the branching side, the reuse counts and the first divergence are
read off the steps afterwards. The matching stores only what the run
touches: owners and degrees come from the degree sequence's own array and
a cumulative sum over it, paired labels sit in a set, and the pool of
unpaired labels that redraws pick from is built, in O(ell), on the first
half-edge reuse. A run without reuses thus costs its steps plus that sum.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .degree_model import DegreeSequence

EVENT_NONE = "none"
EVENT_HALF_EDGE_REUSE = "half_edge_reuse"
EVENT_VERTEX_REUSE = "vertex_reuse"


@dataclass(frozen=True)
class TraceStep:
    """One pairing step: child counts on both sides and the event class.

    bp_children is None when the branching side had already died by the
    time this step ran.
    """

    graph_children: int
    bp_children: int | None
    event: str


@dataclass(frozen=True)
class CouplingTrace:
    """Record of one coupled run from a single root."""

    root: int
    budget: int
    steps: tuple[TraceStep, ...]
    first_divergence: int | None
    graph_generation_sizes: tuple[int, ...]
    bp_generation_sizes: tuple[int, ...]
    bp_next_partial: int
    bp_pending: int
    graph_vertices: int
    half_edge_reuses: int
    vertex_reuses: int
    exhausted: bool


def _pool_remove(pool: np.ndarray, pos: np.ndarray, h: int) -> np.ndarray:
    """The redraw pool without label h: the last label moves into its slot."""
    i = pos[h]
    if i < 0:
        return pool
    last = pool[-1]
    pool[i] = last
    pos[last] = i
    pos[h] = -1
    return pool[:-1]


def _bp_generations(children: list[int]) -> tuple[tuple[int, ...], int, int]:
    """Generation sizes, the partial count of the next generation and the
    individuals of the last full generation still to draw, read off the
    breadth-first child counts of a branching process, the root's first.

    A generation that adds nobody ends the process: the pending and partial
    counts are then 0.
    """
    sizes = [1]
    drawn = 0
    while drawn + sizes[-1] <= len(children):
        born = sum(children[drawn : drawn + sizes[-1]])
        drawn += sizes[-1]
        if born == 0:
            return tuple(sizes), 0, 0
        sizes.append(born)
    return tuple(sizes), sum(children[drawn:]), sizes[-1] - (len(children) - drawn)


def coupled_exploration(
    seq: DegreeSequence, root: int, budget: int, rng: np.random.Generator
) -> CouplingTrace:
    """Coupled run from one root; stops at budget discovered vertices, or
    when the root's component is exhausted. The loop only appends steps; the
    branching side counts the individuals still to draw and dies at 0, and
    the generation sizes, reuse counts and first divergence come from the steps.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not 0 <= root < seq.n:
        raise ValueError(f"root {root} out of range")
    degrees = seq.degrees
    # every degree is at least 1, so the offsets strictly increase
    offsets = np.concatenate(([0], np.cumsum(degrees)))
    ell = int(offsets[-1])
    paired: set[int] = set()
    pool = pos = None
    queue = deque((h, 1) for h in range(int(offsets[root]), int(offsets[root + 1])))
    visited = {root}
    gen_counts = [1]
    steps: list[TraceStep] = []
    bp_left = int(degrees[root])
    exhausted = False
    while len(visited) < budget:
        while queue:
            x, level = queue.popleft()
            if x not in paired:
                break
        else:
            exhausted = True
            break

        y = int(rng.integers(0, ell))
        w = int(offsets.searchsorted(y, side="right")) - 1
        bp_children = None
        if bp_left:
            bp_children = int(degrees[w]) - 1
            bp_left += bp_children - 1

        event = EVENT_NONE
        if y == x or y in paired:
            event = EVENT_HALF_EDGE_REUSE
            # a uniform unpaired label other than x
            if pool is None:
                free = np.ones(ell, dtype=bool)
                free[list(paired)] = False
                free[x] = False
                pool = np.flatnonzero(free)
                pos = np.full(ell, -1)
                pos[pool] = np.arange(pool.size)
            else:
                pool = _pool_remove(pool, pos, x)
            y = int(pool[int(rng.integers(0, len(pool)))])
            w = int(offsets.searchsorted(y, side="right")) - 1
        for h in (x, y):
            paired.add(h)
            if pool is not None:
                pool = _pool_remove(pool, pos, h)

        if w in visited:
            if event == EVENT_NONE:
                event = EVENT_VERTEX_REUSE
            graph_children = 0
        else:
            visited.add(w)
            while len(gen_counts) <= level:
                gen_counts.append(0)
            gen_counts[level] += 1
            fresh = [h for h in range(int(offsets[w]), int(offsets[w + 1])) if h not in paired]
            graph_children = len(fresh)
            queue.extend((h, level + 1) for h in fresh)
        steps.append(TraceStep(graph_children, bp_children, event))

    bp_gens, bp_next, bp_pending = _bp_generations(
        [int(degrees[root])] + [s.bp_children for s in steps if s.bp_children is not None]
    )
    events = [s.event for s in steps]
    clean = [e == EVENT_NONE and s.bp_children == s.graph_children for e, s in zip(events, steps)]
    return CouplingTrace(
        root=root,
        budget=budget,
        steps=tuple(steps),
        first_divergence=clean.index(False) if False in clean else None,
        graph_generation_sizes=tuple(gen_counts),
        bp_generation_sizes=bp_gens,
        bp_next_partial=bp_next,
        bp_pending=bp_pending,
        graph_vertices=len(visited),
        half_edge_reuses=events.count(EVENT_HALF_EDGE_REUSE),
        vertex_reuses=events.count(EVENT_VERTEX_REUSE),
        exhausted=exhausted,
    )


@dataclass(frozen=True)
class ReuseBounds:
    """First-moment ceilings for reuse events within a vertex budget."""

    half_edge: float
    vertex: float


def reuse_bounds(ell_n: int, d_max: int, m_n: int) -> ReuseBounds:
    """Expected-count bounds for runs stopped at m_n discovered vertices.

    Both bounds are the crude union style: at most m_n steps matter per
    vertex discovered, each hitting an off-limits label with probability at
    most m_n/ell_n for half-edge reuse, and at most m_n * d_max / ell_n for
    vertex reuse.
    """
    if ell_n <= 0:
        raise ValueError("need a positive number of half-edges")
    if d_max < 0 or m_n < 0:
        raise ValueError("counts must be nonnegative")
    return ReuseBounds(
        half_edge=m_n * m_n / ell_n,
        vertex=m_n * m_n * d_max / ell_n,
    )

