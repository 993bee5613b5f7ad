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

One state object holds both sides of a run and the matching, which stores
only what the run touches: owners and degrees come from the degree
sequence's own array and its running offsets, paired labels sit in a set,
and the pool of unpaired labels that redraws pick from is built on the
first half-edge reuse. A run without reuses thus costs its steps, plus one
cumulative sum over the degrees.
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


class _Exploration:
    """Mutable state of one coupled run.

    The matching: the sequence's degree array and its running offsets,
    `paired` (the labels paired so far), and from the first half-edge reuse
    on two label arrays: the redraw pool of unpaired labels and `pos`, each
    label's index in the pool (-1 when not pooled). Pairing removes a label
    from the pool by moving the last one into its slot. The graph side: the
    queue of pending (half-edge, level) pairs, the visited vertices and the
    generation counts. The branching side: its generation sizes, the
    individuals of the current generation still to draw, and the partial
    count of the next one.
    """

    def __init__(self, seq: DegreeSequence, root: int, rng: np.random.Generator):
        self.degrees = seq.degrees
        self.offsets = np.concatenate(([0], np.cumsum(seq.degrees)))
        self.ell = int(self.offsets[-1])
        self.paired: set[int] = set()
        self.rng = rng
        self.pool: np.ndarray | None = None
        self.pos: np.ndarray | None = None
        self.queue = deque((h, 1) for h in self.half_edges(root))
        self.visited = {root}
        self.gen_counts = [1]
        self.steps: list[TraceStep] = []
        self.first_divergence: int | None = None
        self.he_reuses = 0
        self.v_reuses = 0
        self.bp_remaining = int(self.degrees[root])
        self.bp_gens = [1, self.bp_remaining]
        self.bp_next = 0
        self.bp_dead = False
        self.exhausted = False

    def owner(self, h: int) -> int:
        # every degree is at least 1, so the offsets strictly increase
        return int(self.offsets.searchsorted(h, side="right")) - 1

    def half_edges(self, v: int) -> range:
        return range(int(self.offsets[v]), int(self.offsets[v + 1]))

    def _pool_remove(self, h: int) -> None:
        if self.pool is None or self.pos[h] < 0:
            return
        last = self.pool[-1]
        self.pool[self.pos[h]] = last
        self.pos[last] = self.pos[h]
        self.pos[h] = -1
        self.pool = self.pool[:-1]

    def _redraw(self, x: int) -> int:
        """Uniform unpaired label other than x."""
        if self.pool is None:
            free = np.ones(self.ell, dtype=bool)
            free[list(self.paired)] = False
            free[x] = False
            self.pool = np.flatnonzero(free)
            self.pos = np.full(self.ell, -1)
            self.pos[self.pool] = np.arange(self.pool.size)
        else:
            self._pool_remove(x)
        j = int(self.rng.integers(0, len(self.pool)))
        return int(self.pool[j])

    def _bp_step(self, y: int) -> int | None:
        """Give the next branching individual deg(owner(y)) - 1 children.

        Returns that count, or None when the branching side has died.
        """
        if self.bp_dead:
            return None
        children = int(self.degrees[self.owner(y)]) - 1
        self.bp_remaining -= 1
        self.bp_next += children
        if self.bp_remaining == 0:
            if self.bp_next == 0:
                self.bp_dead = True
            else:
                self.bp_gens.append(self.bp_next)
                self.bp_remaining = self.bp_next
                self.bp_next = 0
        return children

    def step(self) -> bool:
        """Make one pairing; False, with no draw, once the queue is exhausted."""
        while self.queue:
            x, level = self.queue.popleft()
            if x not in self.paired:
                break
        else:
            self.exhausted = True
            return False

        y_raw = int(self.rng.integers(0, self.ell))
        bp_children = self._bp_step(y_raw)

        if y_raw == x or y_raw in self.paired:
            event = EVENT_HALF_EDGE_REUSE
            self.he_reuses += 1
            y = self._redraw(x)
        else:
            y = y_raw
            event = EVENT_NONE
        for h in (x, y):
            self.paired.add(h)
            self._pool_remove(h)

        w = self.owner(y)
        if w in self.visited:
            if event == EVENT_NONE:
                event = EVENT_VERTEX_REUSE
                self.v_reuses += 1
            graph_children = 0
        else:
            self.visited.add(w)
            while len(self.gen_counts) <= level:
                self.gen_counts.append(0)
            self.gen_counts[level] += 1
            fresh = [h for h in self.half_edges(w) if h not in self.paired]
            graph_children = len(fresh)
            self.queue.extend((h, level + 1) for h in fresh)

        self.steps.append(TraceStep(graph_children, bp_children, event))
        if self.first_divergence is None and (
            event != EVENT_NONE or bp_children != graph_children
        ):
            self.first_divergence = len(self.steps) - 1
        return True


def coupled_exploration(
    seq: DegreeSequence, root: int, budget: int, rng: np.random.Generator
) -> CouplingTrace:
    """Coupled run from one root; stops at budget discovered vertices, or
    when the root's component is exhausted."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not 0 <= root < seq.n:
        raise ValueError(f"root {root} out of range")
    run = _Exploration(seq, root, rng)
    while len(run.visited) < budget and run.step():
        pass
    return CouplingTrace(
        root=root,
        budget=budget,
        steps=tuple(run.steps),
        first_divergence=run.first_divergence,
        graph_generation_sizes=tuple(run.gen_counts),
        bp_generation_sizes=tuple(run.bp_gens),
        bp_next_partial=run.bp_next,
        bp_pending=0 if run.bp_dead else run.bp_remaining,
        graph_vertices=len(run.visited),
        half_edge_reuses=run.he_reuses,
        vertex_reuses=run.v_reuses,
        exhausted=run.exhausted,
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

