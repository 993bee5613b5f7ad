"""Pairwise graph distances between sampled vertex pairs.

Distances between uniformly chosen vertex pairs concentrate around
log n / log nu when the mean forward branching factor nu exceeds one, and
the chance that a pair is connected at all approaches the square of the
giant fraction. A plain sample of bidirectional searches measures both;
the distances experiment divides its mean and median by that reference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_build import HalfEdgeGraph
from .traversal import pair_distance


@dataclass(frozen=True)
class DistanceSample:
    """Distances of sampled vertex pairs; unreachable pairs counted apart."""

    pairs_attempted: int
    finite_distances: tuple[int, ...]
    infinite_count: int

    @property
    def finite_fraction(self) -> float:
        return len(self.finite_distances) / self.pairs_attempted

    def mean_finite(self) -> float:
        if not self.finite_distances:
            raise ValueError("no finite distances in the sample")
        return sum(self.finite_distances) / len(self.finite_distances)

    def median_finite(self) -> float:
        if not self.finite_distances:
            raise ValueError("no finite distances in the sample")
        return float(np.median(self.finite_distances))


def sample_distances(
    g: HalfEdgeGraph, pairs: int, rng: np.random.Generator
) -> DistanceSample:
    """Distances between `pairs` independent uniform vertex pairs.

    The two endpoints are drawn independently, so a pair may land on one
    vertex twice; that contributes a distance of 0, an O(1/n) effect kept
    for fidelity to uniform-pair sampling.
    """
    if pairs < 1:
        raise ValueError("pairs must be positive")
    finite: list[int] = []
    infinite = 0
    a = rng.integers(0, g.n, size=pairs)
    b = rng.integers(0, g.n, size=pairs)
    for u, v in zip(a.tolist(), b.tolist()):
        d = pair_distance(g, u, v)
        if d is None:
            infinite += 1
        else:
            finite.append(d)
    return DistanceSample(
        pairs_attempted=pairs,
        finite_distances=tuple(finite),
        infinite_count=infinite,
    )
