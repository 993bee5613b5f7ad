"""The limiting branching process of a random multigraph with given degrees.

The local picture around a uniform vertex is a two-stage branching process:
the root's child count follows the degree law itself, while every later
individual draws children from the size-biased-and-shifted law. All the
giant-component limits in this library are functionals of that process.

Every sampler here tracks generation sizes only and takes the same step:
the children of a generation of m forward individuals are one multinomial
draw over the forward law, weighted by its support. The single-tree samplers
take that step with an int and sum the draw against the support in Python.
The Monte Carlo estimators share one lockstep loop over all their trees:
one draw of every root, then, per generation, one multinomial over the
trees still alive, in increasing sample index; it yields each tree's total
progeny and the size of one generation. Roots are drawn by the root law's
Pmf.sample, the rule the graph's degrees are drawn by; the multinomial steps
read the forward law's probability array and its support.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from operator import mul

import numpy as np

from .degree_model import Pmf

XI_TOL = 1e-12
XI_MAX_ITER = 10**6


class DegenerateDegreeTwoError(ValueError):
    """The all-degree-2 law is excluded: its graphs are unions of cycles and
    the largest-component fraction does not concentrate."""


@dataclass(frozen=True)
class OffspringSpec:
    """Root and forward offspring laws with their derived constants.

    Attributes:
        root_pmf: child law of the root (the degree law).
        shifted_pmf: child law of everyone else; puts (k+1) p_{k+1} / E[D]
            on k.
        nu: mean of shifted_pmf, the growth rate per generation.
        sigma2: variance of shifted_pmf.
        xi: extinction probability of the forward process, the smallest
            fixed point of its generating function in [0, 1].
        zeta: survival probability seen from the root.
    """

    root_pmf: Pmf
    shifted_pmf: Pmf
    nu: float
    sigma2: float
    xi: float
    zeta: float

    def to_json(self) -> str:
        payload = {
            "root_pmf": self.root_pmf.as_dict(),
            "shifted_pmf": self.shifted_pmf.as_dict(),
            "nu": self.nu,
            "sigma2": self.sigma2,
            "xi": self.xi,
            "zeta": self.zeta,
        }
        return json.dumps(payload, sort_keys=True)


def _generating_function(pmf: Pmf, x: float) -> float:
    return float(sum(p * x**k for k, p in zip(pmf.support, pmf.probabilities)))


def build_offspring_spec(root: Pmf) -> OffspringSpec:
    """Derive the forward offspring law and its fixed-point constants.

    The extinction probability is found by monotone fixed-point iteration of
    the shifted law's generating function starting from 0, stopping when
    successive iterates differ by less than 1e-12 (or after 1e6 rounds near
    criticality, where the residual is still far below any tolerance used
    downstream).

    Raises:
        ValueError: if the root law puts mass at 0.
        DegenerateDegreeTwoError: for the all-degree-2 root law.
    """
    if root.min_value() < 1:
        raise ValueError("root law must be supported on {1, 2, ...}")
    if root.support == (2,) or root.mass(2) == 1.0:
        raise DegenerateDegreeTwoError(
            "all-degree-2 law rejected: components are cycles and the "
            "largest-component fraction has no deterministic limit"
        )
    mean_degree = root.mean()
    shifted = Pmf(
        tuple(k - 1 for k in root.support),
        tuple(k * p / mean_degree for k, p in zip(root.support, root.probabilities)),
    )
    nu = shifted.mean()
    sigma2 = shifted.variance()

    x = 0.0
    for _ in range(XI_MAX_ITER):
        x_next = _generating_function(shifted, x)
        if abs(x_next - x) < XI_TOL:
            x = x_next
            break
        x = x_next
    xi = float(x)
    zeta = float(
        sum(p * (1.0 - xi**k) for k, p in zip(root.support, root.probabilities))
    )
    return OffspringSpec(
        root_pmf=root,
        shifted_pmf=shifted,
        nu=float(nu),
        sigma2=float(sigma2),
        xi=xi,
        zeta=zeta,
    )


@dataclass(frozen=True)
class GiantLimits:
    """Limits of the giant-component observables, per vertex of the graph."""

    zeta: float
    vk_limit: dict[int, float]
    edge_limit: float


def theoretical_giant(spec: OffspringSpec) -> GiantLimits:
    """Limiting giant fractions: vertices, vertices by degree, and edges."""
    xi = spec.xi
    root = spec.root_pmf
    vk = {k: p * (1.0 - xi**k) for k, p in zip(root.support, root.probabilities)}
    edge_limit = 0.5 * root.mean() * (1.0 - xi * xi)
    return GiantLimits(zeta=spec.zeta, vk_limit=vk, edge_limit=float(edge_limit))


EXACT_PROGENY_MAX_K = 30


def _lockstep(spec: OffspringSpec, rng: np.random.Generator, samples: int, k: int, r: int):
    """Total progeny and generation-r size of `samples` trees grown in lockstep.

    One draw of every root, then per generation: add it to the totals,
    record generation r, drop the trees that are empty or that are past r
    with a total of k or more, and draw one multinomial over the rest, in
    increasing sample index. A live tree gains at least one member per
    generation, so at most k + r multinomials are drawn. A dropped tree's
    total is final unless it reached k.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got samples={samples}")
    if k < 1:
        raise ValueError(f"threshold k must be at least 1, got k={k}")
    if r < 0:
        raise ValueError(f"generation r must be nonnegative, got r={r}")
    support, probs, _ = spec.shifted_pmf.arrays
    total = np.ones(samples, dtype=np.int64)
    size_at_r = np.full(samples, int(r == 0), dtype=np.int64)  # generation 0 is the root
    live = np.arange(samples)
    gen = spec.root_pmf.sample(samples, rng)
    generation = 1
    while True:
        total[live] += gen
        if generation == r:
            size_at_r[live] = gen
        keep = gen > 0
        if generation >= r:
            keep &= total[live] < k
        live, gen = live[keep], gen[keep]
        if not live.size:
            return total, size_at_r
        gen = rng.multinomial(gen, probs) @ support
        generation += 1


def zeta_geq_k(
    spec: OffspringSpec,
    k: int,
    mode: str = "exact",
    rng: np.random.Generator | None = None,
    samples: int = 10**5,
) -> float:
    """P(total progeny >= k) for the two-stage branching process.

    exact mode sums the cluster-size law below k by the hitting-time theorem
    (Otter 1949; Dwass 1969): started from d forward individuals, the total
    progeny is m with probability (d/m) P(S_m = m - d), where S_m sums m
    independent forward child counts. So, with f the forward law's
    generating function and p the root law,
        P(|C(o)| = t) = sum_d p_d * d/(t-1) * [s^(t-1-d)] f(s)^(t-1),
    and each t < k takes one more convolution by f, truncated below k. The
    terms are nonnegative; the tail is 1 minus their sum.
    monte_carlo runs all `samples` trees in lockstep (`_lockstep` with r = 0):
    a tree leaves once its generation is empty or its total reaches k, so at
    most k multinomials are drawn.

    Args:
        k: threshold, at least 1; exact mode requires k <= 30.
        mode: "exact" or "monte_carlo".
        rng: required for monte_carlo.
        samples: tree count of monte_carlo, at least 1.
    """
    if k < 1:
        raise ValueError(f"threshold k must be at least 1, got k={k}")
    if mode == "exact":
        if k > EXACT_PROGENY_MAX_K:
            raise ValueError(f"exact mode supports k <= {EXACT_PROGENY_MAX_K}")
        support, probs, _ = spec.shifted_pmf.arrays
        below = support < k
        forward = np.zeros(k)
        forward[support[below]] = probs[below]
        root = list(zip(spec.root_pmf.support, spec.root_pmf.probabilities))
        # law[t] = P(|C(o)| = t); t = 0 and t = 1 stay 0, as the root has a
        # child. The pinned tails were summed over this whole array: a shorter
        # one changes numpy's pairwise summation order and the last bit.
        law = np.zeros(k)
        power = np.ones(1)  # f(s)^(t-1), truncated below k
        for t in range(2, k):
            power = np.convolve(power, forward)[:k]
            law[t] = sum(p * d / (t - 1) * power[t - 1 - d] for d, p in root if d < t)
        return float(1.0 - law.sum())
    if mode == "monte_carlo":
        if rng is None:
            raise ValueError("monte_carlo mode needs an rng")
        total, _ = _lockstep(spec, rng, samples, k, 0)
        return int(np.count_nonzero(total >= k)) / samples
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class BranchingRun:
    """Generation sizes of one simulated tree.

    generation_sizes[0] is the root generation (always 1); the list stops
    early when the population cap is hit, with `truncated` set.
    """

    generation_sizes: tuple[int, ...]
    total: int
    truncated: bool


def simulate_unimodular_bp(
    spec: OffspringSpec,
    max_generation: int,
    cap: int,
    rng: np.random.Generator,
) -> BranchingRun:
    """Simulate generation sizes of the two-stage process.

    Only generation totals are tracked; the sum of children over a
    generation of size m is drawn in one multinomial step, which matches the
    per-individual law exactly. The generator is consumed by one uniform for
    the root, then one multinomial per nonempty generation before the cap.
    Once max_generation generations are recorded, the next one is still
    drawn but not recorded; the pinned stream keeps that draw.
    """
    multinomial = rng.multinomial
    probs, support = spec.shifted_pmf.arrays[1], spec.shifted_pmf.support
    sizes = [1]
    total = 1
    gen = spec.root_pmf.sample(None, rng)
    truncated = False
    for _ in range(max_generation):
        sizes.append(gen)
        total += gen
        if total >= cap:
            truncated = True
            break
        if gen:
            gen = sum(map(mul, multinomial(gen, probs).tolist(), support))
    return BranchingRun(tuple(sizes), total, truncated)


def simulate_offspring_generations(
    spec: OffspringSpec,
    b0: int,
    generations: int,
    rng: np.random.Generator,
    cap: int | None = None,
) -> BranchingRun:
    """Generation sizes of the forward process started from b0 individuals.

    Every individual, including the starting generation's successors, draws
    children from the shifted law, one multinomial per nonempty generation.
    Used to study how a large generation evolves once the process is already
    well established.
    """
    if b0 < 1:
        raise ValueError("need a positive starting generation")
    multinomial = rng.multinomial
    probs, support = spec.shifted_pmf.arrays[1], spec.shifted_pmf.support
    sizes = [b0]
    total = b0
    gen = b0
    truncated = False
    for _ in range(generations):
        if gen:
            gen = sum(map(mul, multinomial(gen, probs).tolist(), support))
        sizes.append(gen)
        total += gen
        if cap is not None and total >= cap:
            truncated = True
            break
    return BranchingRun(tuple(sizes), total, truncated)


@dataclass(frozen=True)
class CondLimitEstimate:
    """Monte Carlo frequencies of the two mismatch events between cluster
    size and boundary growth."""

    big_cluster_small_boundary: float
    small_cluster_big_boundary: float
    samples: int


def estimate_cond_limit(
    spec: OffspringSpec,
    k: int,
    r: int,
    r_k: int,
    samples: int,
    rng: np.random.Generator,
) -> CondLimitEstimate:
    """Estimate P(progeny >= k, generation r < r_k) and its mirror image.

    All `samples` trees run in lockstep (`_lockstep`): a tree leaves once its
    generation is empty, or once generation r is recorded and its total
    reaches k.

    Args:
        k: progeny threshold, at least 1.
        r: generation whose size is compared with r_k, at least 0.
        r_k: boundary threshold, at least 1.
        samples: tree count, at least 1.
    """
    if r_k < 1:
        raise ValueError(f"boundary threshold r_k must be at least 1, got r_k={r_k}")
    total, size_at_r = _lockstep(spec, rng, samples, k, r)
    big = total >= k
    fat = size_at_r >= r_k
    return CondLimitEstimate(
        big_cluster_small_boundary=int(np.count_nonzero(big & ~fat)) / samples,
        small_cluster_big_boundary=int(np.count_nonzero(~big & fat)) / samples,
        samples=samples,
    )


@dataclass(frozen=True)
class Envelope:
    """Deterministic sandwich around the forward process started at b0.

    over/under obey
        over[k+1]  = nu * over[k] + over[k]**alpha
        under[k+1] = nu * under[k] - over[k]**alpha
    so the correction term is always driven by the upper sequence.
    """

    under: tuple[float, ...]
    over: tuple[float, ...]


def envelope_recursion(b0: float, nu: float, alpha: float, K: int) -> Envelope:
    """Run the sandwich recursion for K steps from under = over = b0.

    Args:
        b0: starting generation size, at least 1.
        nu: growth rate, strictly above 1.
        alpha: correction exponent in (1/2, 1).
        K: number of steps, at least 0.
    """
    if nu <= 1:
        raise ValueError("the sandwich needs a supercritical growth rate")
    if not (0.5 < alpha < 1.0):
        raise ValueError("alpha must lie strictly between 1/2 and 1")
    if b0 < 1:
        raise ValueError("starting size must be at least 1")
    if K < 0:
        raise ValueError("step count must be nonnegative")
    over = [float(b0)]
    under = [float(b0)]
    for _ in range(K):
        bump = over[-1] ** alpha
        over.append(nu * over[-1] + bump)
        under.append(nu * under[-1] - bump)
    return Envelope(under=tuple(under), over=tuple(over))
