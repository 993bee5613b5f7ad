"""Degree sequences and the distributions they converge to.

A degree sequence assigns every vertex a degree of at least one; the total
degree must be even so that half-edges can be paired into a multigraph.
Finite-support probability mass functions describe the limiting degree
distribution used by the branching-process side of the library. Pmf.sample
is the one rule that turns uniforms into values of a law, on either side.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

PMF_SUM_TOL = 1e-12
# supports up to this size draw by comparisons, faster than searchsorted on
# unsorted uniforms (1e4-1e5 draws on a 2-vCPU x86-64 VM)
_SCAN_MAX = 32


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on nonnegative integers with finite support.

    Attributes:
        support: strictly increasing nonnegative integers.
        probabilities: nonnegative reals, same length as support, summing
            to 1 within PMF_SUM_TOL.
    """

    support: tuple[int, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        support = tuple(int(k) for k in self.support)
        probabilities = tuple(float(p) for p in self.probabilities)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probabilities", probabilities)
        if len(support) == 0:
            raise ValueError("pmf needs at least one support point")
        if len(support) != len(probabilities):
            raise ValueError("support and probabilities differ in length")
        if any(k < 0 for k in support):
            raise ValueError("support values must be nonnegative integers")
        if any(b <= a for a, b in zip(support, support[1:])):
            raise ValueError("support must be strictly increasing")
        if not all(math.isfinite(p) and p >= 0 for p in probabilities):
            raise ValueError("probabilities must be finite and nonnegative")
        total = sum(probabilities)
        if abs(total - 1.0) > PMF_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @classmethod
    def from_dict(cls, masses: Mapping[int, float]) -> "Pmf":
        items = sorted(masses.items())
        return cls(tuple(k for k, _ in items), tuple(p for _, p in items))

    def as_dict(self) -> dict[int, float]:
        return dict(zip(self.support, self.probabilities))

    def mass(self, k: int) -> float:
        """Probability assigned to the integer k (0.0 off support)."""
        return self.as_dict().get(k, 0.0)

    def mean(self) -> float:
        return float(sum(k * p for k, p in zip(self.support, self.probabilities)))

    def second_moment(self) -> float:
        return float(sum(k * k * p for k, p in zip(self.support, self.probabilities)))

    def variance(self) -> float:
        m = self.mean()
        return self.second_moment() - m * m

    def min_value(self) -> int:
        return self.support[0]

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Support, probabilities and cdf as arrays, built once per law; the
        cdf is normalized as rng.choice normalizes it."""
        probabilities = np.array(self.probabilities)
        cdf = np.cumsum(probabilities)
        cdf /= cdf[-1]
        return np.array(self.support), probabilities, cdf

    @cached_property
    def _cdf_list(self) -> list[float]:
        return self.arrays[2].tolist()

    def sample(self, size: int | None, rng: np.random.Generator) -> int | np.ndarray:
        """size values (one int for size None) from one rng.random(size) call,
        as rng.choice(support, size, p=probabilities) draws them: each uniform
        gives the first value whose cdf exceeds it, found by counting the cdf
        entries at or below it (bisect_right for one, one comparison per
        entry on supports of at most _SCAN_MAX values, searchsorted above)."""
        if size is None:
            return self.support[bisect_right(self._cdf_list, rng.random())]
        support, _, cdf = self.arrays
        u = rng.random(size)
        if support.size > _SCAN_MAX:
            at = cdf.searchsorted(u, side="right")
        else:
            at = np.zeros(size, dtype=np.intp)
            for c in self._cdf_list[:-1]:  # u < 1 = cdf[-1]
                at += u >= c
        del u  # freed before the gather, so the peak stays that of one index array
        return support[at]


@dataclass(frozen=True)
class DegreeSequence:
    """Per-vertex degrees of a multigraph on n vertices.

    Every degree is a positive integer and the total degree is even, so the
    half-edges can always be paired off.
    """

    degrees: np.ndarray

    def __post_init__(self) -> None:
        degrees = np.asarray(self.degrees, dtype=np.int64)
        if degrees.ndim != 1 or degrees.size == 0:
            raise ValueError("degrees must be a nonempty 1-d sequence")
        if degrees.min() < 1:
            raise ValueError("every vertex needs degree at least 1")
        if int(degrees.sum()) % 2 != 0:
            raise ValueError("total degree must be even")
        object.__setattr__(self, "degrees", degrees)

    @property
    def n(self) -> int:
        return int(self.degrees.size)

    @property
    def total_degree(self) -> int:
        return int(self.degrees.sum())

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max())

    def save(self, path: str | Path) -> None:
        """Write newline-delimited degrees."""
        Path(path).write_text("".join(f"{d}\n" for d in self.degrees.tolist()))

    @classmethod
    def load(cls, path: str | Path) -> "DegreeSequence":
        values = [int(line) for line in Path(path).read_text().split()]
        return cls(np.array(values, dtype=np.int64))


def sample_iid_degrees(dist: Pmf, n: int, rng: np.random.Generator) -> DegreeSequence:
    """Draw n i.i.d. degrees from dist, fixing parity if the total is odd.

    The parity fix increments the last vertex's degree by 1, so at most one
    entry differs from a plain i.i.d. draw and only by one.

    Args:
        dist: limiting degree distribution; must put no mass at 0.
        n: number of vertices, at least 1.
        rng: numpy Generator.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if dist.min_value() < 1:
        raise ValueError("degree distribution must not put mass at 0")
    draws = dist.sample(n, rng)
    if int(draws.sum()) % 2 != 0:
        draws[-1] += 1
    return DegreeSequence(draws)


def empirical_distribution(seq: DegreeSequence) -> Pmf:
    """Empirical pmf of the degrees (counts divided by n)."""
    values, counts = np.unique(seq.degrees, return_counts=True)
    n = seq.n
    return Pmf(tuple(int(v) for v in values), tuple(c / n for c in counts.tolist()))

