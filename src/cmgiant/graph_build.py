"""Half-edge pairing construction of random multigraphs with given degrees.

Vertices own consecutive half-edge labels: vertex v owns labels
offsets[v] .. offsets[v+1]-1. A multigraph is a perfect matching on the
labels, stored as an involution `mate` with no fixed point. Self-loops pair
two labels of the same vertex and count 2 toward its incident half-edges
but form a single edge; parallel edges are kept.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degree_model import DegreeSequence

_VALIDATE_SLICE = 1 << 20


class HalfEdgeGraph:
    """Multigraph on [n] stored as a fixed-point-free involution on labels.

    Attributes:
        offsets: int64 array of length n+1; vertex v owns half-edge labels
            offsets[v] .. offsets[v+1]-1.
        mate: int64 array of length offsets[-1]; mate[x] is the label paired
            with x. An involution: mate[mate[x]] == x and mate[x] != x.
        owner: int64 array mapping each half-edge label to its vertex.
    """

    def __init__(self, offsets: np.ndarray, mate: np.ndarray) -> None:
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.mate = np.asarray(mate, dtype=np.int64)
        degrees = np.diff(self.offsets)
        self.owner = np.repeat(np.arange(self.n, dtype=np.int64), degrees)
        self._adjacency: tuple[memoryview, memoryview] | None = None
        # (r0, cyclic roots, their cycle radii) from a tree test of every
        # root, cached by traversal._tree_roots for every radius up to r0
        self._cycles: tuple | None = None

    @classmethod
    def from_degrees(cls, seq: DegreeSequence, mate: np.ndarray) -> "HalfEdgeGraph":
        offsets = np.zeros(seq.n + 1, dtype=np.int64)
        np.cumsum(seq.degrees, out=offsets[1:])
        return cls(offsets, mate)

    @property
    def n(self) -> int:
        return int(self.offsets.size - 1)

    @property
    def num_half_edges(self) -> int:
        return int(self.offsets[-1])

    @property
    def num_edges(self) -> int:
        return self.num_half_edges // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def validate(self) -> None:
        """Check the matching is a fixed-point-free involution on the labels,
        a slice of _VALIDATE_SLICE labels at a time to bound its temporary arrays."""
        ell = self.num_half_edges
        if ell % 2 != 0:
            raise ValueError("odd number of half-edges cannot be matched")
        if self.mate.shape != (ell,):
            raise ValueError("mate array length does not match the label count")
        if ell and (self.mate.min() < 0 or self.mate.max() >= ell):
            raise ValueError("mate contains labels out of range")
        fixed_point = False
        for start in range(0, ell, _VALIDATE_SLICE):
            labels = np.arange(start, min(start + _VALIDATE_SLICE, ell))
            mates = self.mate[start:start + _VALIDATE_SLICE]
            if not np.array_equal(self.mate[mates], labels):
                raise ValueError("mate is not an involution")
            fixed_point = fixed_point or bool(np.any(mates == labels))
        if fixed_point:
            raise ValueError("mate has a fixed point (a half-edge paired with itself)")

    def adjacency(self) -> tuple[memoryview, memoryview]:
        """Flat adjacency as memoryviews (offsets, neighbor-per-half-edge).

        Cached; the neighbor view mirrors half-edge order, so neighbors of v
        live at positions offsets[v] .. offsets[v+1]-1. The offsets view
        shares the graph's array and the neighbor view one int64 gather,
        8 bytes a half-edge; indexing, slicing or iterating either yields
        plain Python ints for the breadth-first loops in this library. A
        graph whose views are cached cannot be pickled or deep-copied.
        """
        if self._adjacency is None:
            self._adjacency = (memoryview(self.offsets), memoryview(self.owner[self.mate]))
        return self._adjacency


@dataclass(frozen=True)
class ExplosionMap:
    """Bookkeeping tying a degree sequence to its truncated-and-exploded twin.

    Degrees above the cutoff b keep only their b lowest-labeled half-edges;
    each displaced half-edge becomes a brand-new degree-1 vertex that keeps
    the original label. `half_edge_relabeling[x]` is the label of original
    half-edge x in the canonical labeling of the exploded sequence.
    """

    original_degrees: DegreeSequence
    truncated_degrees: DegreeSequence
    cutoff: int
    half_edge_relabeling: np.ndarray

    @property
    def original_n(self) -> int:
        return self.original_degrees.n

    @property
    def exploded_n(self) -> int:
        return self.truncated_degrees.n

    def validate(self) -> None:
        relab = self.half_edge_relabeling
        ell = self.original_degrees.total_degree
        in_range = relab.shape == (ell,) and relab.dtype.kind == "i" and (
            ell == 0 or (relab.min() >= 0 and relab.max() < ell)
        )
        if not in_range or np.count_nonzero(np.bincount(relab, minlength=ell)) != ell:
            raise ValueError("half-edge relabeling is not a bijection on labels")
        if self.truncated_degrees.total_degree != ell:
            raise ValueError("explosion changed the total degree")
        n = self.original_n
        if np.any(self.truncated_degrees.degrees[:n] !=
                  np.minimum(self.original_degrees.degrees, self.cutoff)):
            raise ValueError("kept vertices must have degree min(d, b)")
        if self.exploded_n > n and np.any(self.truncated_degrees.degrees[n:] != 1):
            raise ValueError("exploded vertices must have degree 1")


def pair_half_edges(seq: DegreeSequence, rng: np.random.Generator) -> HalfEdgeGraph:
    """Draw a uniform perfect matching on the half-edges of seq.

    Permutation pairing: draw a uniform permutation perm of the labels and
    pair perm[2i] with perm[2i+1]. Every perfect matching on ell labels
    arises from exactly (ell/2)! * 2^(ell/2) permutations (order the pairs,
    then order each pair), so the matching is uniform. The generator is
    consumed by one rng.permutation(ell) call. Runs in O(total degree).
    """
    graph = HalfEdgeGraph.from_degrees(seq, _permutation_matching(seq.total_degree, rng))
    graph.validate()
    return graph


def _permutation_matching(ell: int, rng: np.random.Generator) -> np.ndarray:
    """The involution pairing perm[2i] with perm[2i+1] for perm = rng.permutation(ell)."""
    perm = rng.permutation(ell)
    mate = np.empty_like(perm)
    mate[perm[0::2]] = perm[1::2]
    mate[perm[1::2]] = perm[0::2]
    return mate


def truncate_explode(seq: DegreeSequence, b: int) -> ExplosionMap:
    """Truncate degrees at b, exploding displaced half-edges into new vertices.

    Vertex v keeps its min(d_v, b) lowest labels; every displaced half-edge
    becomes a new degree-1 vertex appended after the originals, scanning
    vertices in order and their displaced labels in increasing order. Total
    degree is preserved exactly. A kept label moves down by the number of
    labels displaced from earlier vertices, to the same offset in its
    vertex's truncated range; the j-th displaced label becomes the single
    label of vertex n + j. The displaced labels are listed directly as the
    ranges offsets[v] + b .. offsets[v+1]-1 of the vertices above b.

    Args:
        b: degree cutoff, at least 1.
    """
    if b < 1:
        raise ValueError("cutoff must be at least 1")
    degrees = seq.degrees
    ell = seq.total_degree
    kept = np.minimum(degrees, b)
    excess = degrees - kept
    n_plus = int(excess.sum())
    truncated = DegreeSequence(np.concatenate([kept, np.ones(n_plus, dtype=np.int64)]))

    # labels displaced from the vertices before each vertex
    before = np.cumsum(excess) - excess
    big = np.flatnonzero(excess)
    # the j-th displaced label, from vertex v, is j + offsets[v] + b - before[v]
    displaced = np.repeat((np.cumsum(degrees) - degrees)[big] + b - before[big], excess[big])
    displaced += np.arange(n_plus)
    relab = np.arange(ell, dtype=np.int64)
    relab -= np.repeat(before, degrees)
    relab[displaced] = np.arange(ell - n_plus, ell)
    emap = ExplosionMap(
        original_degrees=seq,
        truncated_degrees=truncated,
        cutoff=b,
        half_edge_relabeling=relab,
    )
    emap.validate()
    return emap


def apply_shared_matching(
    emap: ExplosionMap, mate: np.ndarray
) -> tuple[HalfEdgeGraph, HalfEdgeGraph]:
    """Interpret one matching on the shared labels in both degree models.

    The same involution drives the original graph directly and the exploded
    graph through the label bijection, which is what makes connectivity in
    the exploded graph imply connectivity among the original vertices.
    """
    g = HalfEdgeGraph.from_degrees(emap.original_degrees, mate)
    relab = emap.half_edge_relabeling
    mate_prime = np.empty_like(mate)
    mate_prime[relab] = relab[mate]
    g_prime = HalfEdgeGraph.from_degrees(emap.truncated_degrees, mate_prime)
    g.validate()
    g_prime.validate()
    return g, g_prime


def coupled_pairing(
    emap: ExplosionMap, rng: np.random.Generator
) -> tuple[HalfEdgeGraph, HalfEdgeGraph]:
    """Draw one uniform matching and build both coupled graphs from it.

    The matching is drawn as in pair_half_edges, and each graph is validated
    once, by apply_shared_matching.
    """
    mate = _permutation_matching(emap.original_degrees.total_degree, rng)
    return apply_shared_matching(emap, mate)


def disjoint_union(g1: HalfEdgeGraph, g2: HalfEdgeGraph) -> HalfEdgeGraph:
    """Place two multigraphs side by side with no edges between them."""
    shift_v = g1.num_half_edges
    offsets = np.concatenate([g1.offsets, g2.offsets[1:] + g1.offsets[-1]])
    mate = np.concatenate([g1.mate, g2.mate + shift_v])
    return HalfEdgeGraph(offsets, mate)
