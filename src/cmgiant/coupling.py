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

Two-root runs share the matching and the draw clock but keep separate
visited sets and separate branching states; their offspring streams stay
independent because every branching draw is a fresh uniform label.

The matching stores only what a run touches: owners and degrees come from
the degree sequence's own array and its running offsets, paired labels sit
in a set, and the pool of unpaired labels that redraws pick from is built
on the first half-edge reuse. A run without reuses thus costs its steps,
plus one cumulative sum over the degrees.
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

    @property
    def bp_total(self) -> int:
        return sum(self.bp_generation_sizes) + self.bp_next_partial


class _RootState:
    """Mutable exploration state for one root."""

    def __init__(self, root: int, half_edges: range):
        self.root = root
        self.queue = deque((h, 1) for h in half_edges)
        self.visited = {root}
        self.gen_counts = [1]
        self.steps: list[TraceStep] = []
        self.first_divergence: int | None = None
        self.he_reuses = 0
        self.v_reuses = 0
        self.bp_gens = [1, len(half_edges)]
        self.bp_remaining = len(half_edges)
        self.bp_next = 0
        self.bp_dead = False
        self.stopped = False
        self.exhausted = False

    def bp_step(self, sm: _SharedMatching, y: int) -> int | None:
        """Give the next branching individual deg(owner(y)) - 1 children.

        Returns that count, or None when the branching side has died.
        """
        if self.bp_dead:
            return None
        children = int(sm.degrees[sm.owner(y)]) - 1
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


class _SharedMatching:
    """Lazy uniform pairing shared by all roots of one run.

    State: the sequence's degree array and its running offsets, `paired`
    (the labels paired so far), and from the first half-edge reuse on two
    label arrays: the redraw pool of unpaired labels and `pos`, each label's
    index in the pool (-1 when not pooled). Pairing removes a label from the
    pool by moving the last one into its slot.
    """

    def __init__(self, seq: DegreeSequence, rng: np.random.Generator):
        self.degrees = seq.degrees
        self.offsets = np.concatenate(([0], np.cumsum(seq.degrees)))
        self.ell = int(self.offsets[-1])
        self.paired: set[int] = set()
        self.rng = rng
        self.pool: np.ndarray | None = None
        self.pos: np.ndarray | None = None

    def owner(self, h: int) -> int:
        # every degree is at least 1, so the offsets strictly increase
        return int(self.offsets.searchsorted(h, side="right")) - 1

    def half_edges(self, v: int) -> range:
        return range(int(self.offsets[v]), int(self.offsets[v + 1]))

    def _build_pool(self, exclude: int) -> None:
        free = np.ones(self.ell, dtype=bool)
        free[list(self.paired)] = False
        free[exclude] = False
        self.pool = np.flatnonzero(free)
        self.pos = np.full(self.ell, -1)
        self.pos[self.pool] = np.arange(self.pool.size)

    def _pool_remove(self, h: int) -> None:
        if self.pool is None or self.pos[h] < 0:
            return
        last = self.pool[-1]
        self.pool[self.pos[h]] = last
        self.pos[last] = self.pos[h]
        self.pos[h] = -1
        self.pool = self.pool[:-1]

    def redraw(self, x: int) -> int:
        """Uniform unpaired label other than x."""
        if self.pool is None:
            self._build_pool(x)
        else:
            self._pool_remove(x)
        j = int(self.rng.integers(0, len(self.pool)))
        return int(self.pool[j])

    def pair(self, x: int, y: int) -> None:
        self.paired.add(x)
        self.paired.add(y)
        self._pool_remove(x)
        self._pool_remove(y)


def _step(sm: _SharedMatching, st: _RootState, budget: int) -> None:
    """Advance one root by one pairing, or mark it exhausted."""
    while st.queue:
        x, level = st.queue.popleft()
        if x not in sm.paired:
            break
    else:
        st.stopped = True
        st.exhausted = True
        return

    y_raw = int(sm.rng.integers(0, sm.ell))
    bp_children = st.bp_step(sm, y_raw)

    if y_raw == x or y_raw in sm.paired:
        event = EVENT_HALF_EDGE_REUSE
        st.he_reuses += 1
        y = sm.redraw(x)
    else:
        y = y_raw
        event = EVENT_NONE
    sm.pair(x, y)

    w = sm.owner(y)
    if w in st.visited:
        if event == EVENT_NONE:
            event = EVENT_VERTEX_REUSE
            st.v_reuses += 1
        graph_children = 0
    else:
        st.visited.add(w)
        while len(st.gen_counts) <= level:
            st.gen_counts.append(0)
        st.gen_counts[level] += 1
        fresh = [h for h in sm.half_edges(w) if h not in sm.paired]
        graph_children = len(fresh)
        st.queue.extend((h, level + 1) for h in fresh)

    st.steps.append(TraceStep(graph_children, bp_children, event))
    if st.first_divergence is None and (
        event != EVENT_NONE or bp_children != graph_children
    ):
        st.first_divergence = len(st.steps) - 1

    if len(st.visited) >= budget:
        st.stopped = True


def _finish(st: _RootState, budget: int) -> CouplingTrace:
    return CouplingTrace(
        root=st.root,
        budget=budget,
        steps=tuple(st.steps),
        first_divergence=st.first_divergence,
        graph_generation_sizes=tuple(st.gen_counts),
        bp_generation_sizes=tuple(st.bp_gens),
        bp_next_partial=st.bp_next,
        bp_pending=0 if st.bp_dead else st.bp_remaining,
        graph_vertices=len(st.visited),
        half_edge_reuses=st.he_reuses,
        vertex_reuses=st.v_reuses,
        exhausted=st.exhausted,
    )


def _run(
    seq: DegreeSequence,
    roots: tuple[int, ...],
    budget: int,
    rng: np.random.Generator,
) -> list[CouplingTrace]:
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if len(set(roots)) != len(roots):
        raise ValueError("roots must be distinct")
    for r in roots:
        if not 0 <= r < seq.n:
            raise ValueError(f"root {r} out of range")
    sm = _SharedMatching(seq, rng)
    states = [_RootState(r, sm.half_edges(r)) for r in roots]
    # each root starts with one discovered vertex
    active = states if budget > 1 else []
    while active:
        for st in active:
            _step(sm, st, budget)
        active = [st for st in active if not st.stopped]
    return [_finish(st, budget) for st in states]


def coupled_exploration(
    seq: DegreeSequence, root: int, budget: int, rng: np.random.Generator
) -> CouplingTrace:
    """Coupled run from one root; stops at budget discovered vertices."""
    return _run(seq, (root,), budget, rng)[0]


def coupled_pair_exploration(
    seq: DegreeSequence,
    roots: tuple[int, int],
    budget: int,
    rng: np.random.Generator,
) -> tuple[CouplingTrace, CouplingTrace]:
    """Two coupled runs sharing one matching and one draw clock.

    Each root keeps its own visited set and its own branching state; budget
    applies to each root separately.
    """
    a, b = _run(seq, (roots[0], roots[1]), budget, rng)
    return a, b


@dataclass(frozen=True)
class ReuseBounds:
    """First-moment ceilings for reuse events within a vertex budget."""

    half_edge: float
    vertex: float


def reuse_bounds(n: int, ell_n: int, d_max: int, m_n: int) -> ReuseBounds:
    """Expected-count bounds for runs stopped at m_n discovered vertices.

    Both bounds are the crude union style: at most m_n steps matter per
    vertex discovered, each hitting an off-limits label with probability at
    most m_n/ell_n for half-edge reuse, and at most m_n * d_max / ell_n for
    vertex reuse.
    """
    if ell_n <= 0:
        raise ValueError("need a positive number of half-edges")
    if n <= 0 or d_max < 0 or m_n < 0:
        raise ValueError("counts must be nonnegative (n positive)")
    return ReuseBounds(
        half_edge=m_n * m_n / ell_n,
        vertex=m_n * m_n * d_max / ell_n,
    )

