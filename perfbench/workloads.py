"""The benchmark's workloads: the jobs of one set and the checks on their outputs.

A run repeats its workload's set of jobs. Each set gets its own seed, drawn
from the run's --seed, and the program sees only the configs generated from
it. CLI jobs go through `expcli.config_from_dict` + `expcli.run_experiment`
with threads=1; the local_limit samplers are called directly. Library calls
go through module attributes so that the tracer's wrappers apply.

Tolerances come from the sampling error at each job's size, with Z
standard errors allowed. They never compare RNG bytes, so a change of the
random streams (a new pairing algorithm, say) still passes when its
statistics are right.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

from cmgiant import degree_model, expcli, local_limit, neighborhoods

from tracing import rebound

Z = 6.0  # standard errors allowed before a statistic counts as wrong

# Bound on n * Var of a giant fraction (gmax_frac, v{k}_frac, giant
# degree-1 mass). Over 60 seeds at n=2e4 the largest measured value was 0.82
# (gmax_frac, law A); v{k}_frac stayed below 0.46.
VERTEX_VAR = 1.0

LAW_A = {1: 0.5, 3: 0.5}  # one dominant giant, zeta = 22/27
LAW_B = {1: 0.4, 4: 0.3, 10: 0.3}  # denser, nu ~ 6.65; b=3 explodes ~2.4n degree-1 vertices

OUTPUT_FILES = ("results.jsonl", "summary.csv", "manifest.json")


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def near(name: str, value: float, target: float, tol: float) -> Check:
    return Check(name, abs(value - target) <= tol, f"{value:.5g} vs {target:.5g} (tol {tol:.3g})")


def at_most(name: str, value: float, limit: float) -> Check:
    return Check(name, value <= limit, f"{value:.5g} <= {limit:.3g}")


def within(name: str, value: float, low: float, high: float) -> Check:
    return Check(name, low <= value <= high, f"{value:.5g} in [{low:.5g}, {high:.5g}]")


class Law:
    """A degree law with its offspring spec and limits (computed at set-up)."""

    def __init__(self, masses: dict[int, float]) -> None:
        self.masses = masses
        self.spec = local_limit.build_offspring_spec(degree_model.Pmf.from_dict(masses))
        self.limits = local_limit.theoretical_giant(self.spec)
        self._p_geq: dict[int, float] = {}

    def p_geq(self, k: int) -> float:
        """Exact P(total progeny >= k), for check references only."""
        if k not in self._p_geq:
            self._p_geq[k] = local_limit.zeta_geq_k(self.spec, k)
        return self._p_geq[k]

    def finite_mass(self, k: int) -> float:
        """Limit mass of vertices in finite clusters of size >= k.

        Beyond the exact range of zeta_geq_k this is the bound at its top k.
        """
        k = min(k, local_limit.EXACT_PROGENY_MAX_K)
        return max(0.0, self.p_geq(k) - self.limits.zeta)

    def tree_shapes(self, r: int) -> int:
        """Distinct depth-r trees of the two-stage process (leaves keep a stub count)."""
        child = self.spec.shifted_pmf.support
        shapes = len(child)
        for _ in range(r - 1):
            shapes = sum(math.comb(shapes + c - 1, c) for c in child)
        return sum(math.comb(shapes + c - 1, c) for c in self.spec.root_pmf.support)


def giant_tol(n: int) -> float:
    return Z * math.sqrt(VERTEX_VAR / n)


def stray_pair_tol(law: Law, k: int, n: int) -> float:
    """Upper limit for a cross-cluster pair fraction restricted to 'big' vertices.

    With m the mass of vertices in finite clusters of size >= k, the pair
    fraction is at most 2m + m^2 <= 3m. m has mean finite_mass(k) and moves
    in units of whole clusters (>= k vertices); the k/n floor lets a few stray
    clusters through when the limit mass is ~0.
    """
    m = law.finite_mass(k)
    m_high = m + Z * math.sqrt(max(m, k / n) * k / n)
    return 3 * m_high


def tv_tol(law: Law, r: int, n: int, samples: int) -> float:
    """Twice the Cauchy-Schwarz bound on E[TV] over K ball shapes.

    E|p_i - q_i| <= sqrt(Var), with Var <= p_i (2/n + 1/S): 1/S for the
    branching side, 2/n for the graph side, whose balls overlap.
    """
    k = law.tree_shapes(r)
    return 2 * 0.5 * math.sqrt(k * (2 / n + 1 / samples))


def binomial_tol(p: float, samples: int) -> float:
    return Z * math.sqrt(max(p * (1 - p), 1 / samples) / samples)


@dataclass(frozen=True)
class Job:
    name: str
    execute: Callable[[int, str], object]  # (seed, workdir) -> output; timed
    verify: Callable[[int, str, object], list[Check]]  # untimed


def cli_job(experiment: str, law: Law, n: int, stat_checks, **params) -> Job:
    """One expcli experiment at one (n, seed); stat_checks(record, summary, observed)."""

    def config(seed: int, workdir: str) -> dict:
        pmf = {str(k): p for k, p in law.masses.items()}
        return {
            "experiment": experiment,
            "pmf": pmf,
            "n": [n],
            "seeds": [seed],
            "out_dir": workdir,
            **params,
        }

    expcli.config_from_dict(config(0, "."))  # set-up parses the config once

    def execute(seed: int, workdir: str):
        cfg = expcli.config_from_dict(config(seed, workdir))
        observed: list[float] = []
        census = neighborhoods.empirical_ball_distribution

        def observe(*args, **kwargs):
            dist = census(*args, **kwargs)
            observed.append(float(dist.get(neighborhoods.OVERSIZE_BALL, 0.0)))
            return dist

        with rebound(census, observe):
            code = expcli.run_experiment(cfg, threads=1)
        return code, observed

    def verify(seed: int, workdir: str, output) -> list[Check]:
        code, observed = output
        checks = [Check("exit_code", code == 0, f"exit code {code}")]
        missing = [f for f in OUTPUT_FILES if not os.path.isfile(os.path.join(workdir, f))]
        checks.append(Check("outputs", not missing, f"missing {missing}" if missing else "all written"))
        if code != 0 or missing:
            return checks
        with open(os.path.join(workdir, "results.jsonl")) as fh:
            record = json.loads(fh.readline())
        with open(os.path.join(workdir, "summary.csv"), newline="") as fh:
            summary = next(csv.DictReader(fh))
        with open(os.path.join(workdir, "manifest.json")) as fh:
            manifest = json.load(fh)
        checks.append(Check("manifest_seeds", manifest["seeds"] == [seed], str(manifest["seeds"])))
        return checks + stat_checks(record, summary, observed)

    return Job(experiment, execute, verify)


def sampler_job(name: str, stream: int, sample, stat_checks) -> Job:
    """A direct local_limit call; sample(rng) -> estimate, stat_checks(estimate).

    stream splits the branching-process stream of the set's seed per job.
    """

    def execute(seed: int, workdir: str):
        return sample(expcli.derive_rng(seed, expcli.STREAM_BP, stream))

    def verify(seed: int, workdir: str, output) -> list[Check]:
        return stat_checks(output)

    return Job(name, execute, verify)


def graph_core(scale: float = 1.0) -> tuple[Job, ...]:
    """Time goes to pairing and components: one dominant giant, then mostly tiny clusters."""
    a, b = Law(LAW_A), Law(LAW_B)
    n_giant, n_trunc = round(3e5 * scale), round(6e4 * scale)

    def giant_checks(record, summary, observed):
        tol = giant_tol(n_giant)
        checks = [near("gmax_frac", record["gmax_frac"], float(summary["theory_zeta"]), tol)]
        for k in a.masses:
            checks.append(
                near(f"v{k}_frac", record[f"v{k}_frac"], float(summary[f"theory_v{k}"]), tol)
            )
        return checks

    def truncation_checks(record, summary, observed):
        return [
            Check(
                "connectivity_violations",
                record["connectivity_violations"] == 0,
                str(record["connectivity_violations"]),
            ),
            near("gmax_frac", record["gmax_frac"], b.limits.zeta, giant_tol(n_trunc)),
        ]

    return (
        cli_job("giant", a, n_giant, giant_checks),
        cli_job("truncation", b, n_trunc, truncation_checks, b=3),
    )


def local_conv(scale: float = 1.0) -> tuple[Job, ...]:
    """Time goes to the ball encoder and the branching-process census; no graph-core work."""
    a = Law(LAW_A)
    n = round(5e3 * scale)
    samples = round(2.5e4 * scale)
    radii = (1, 2)

    def checks(record, summary, observed):
        out = [at_most(f"tv_r{r}", record[f"tv_r{r}"], tv_tol(a, r, n, samples)) for r in radii]
        out.append(
            near(
                "giant_deg1_mass",
                record["giant_deg1_mass"],
                float(summary["theory_giant_deg1"]),
                giant_tol(n),
            )
        )
        out.append(Check("oversize_mass_graph", observed == [0.0] * len(radii), str(observed)))
        return out

    return (cli_job("local_conv", a, n, checks, r=list(radii), bp_samples=samples),)


def explore(scale: float = 1.0) -> tuple[Job, ...]:
    """Traversal, distances, coupling and the branching-process samplers on the denser law."""
    b = Law(LAW_B)
    n = round(5e4 * scale)
    pairs = max(50, round(1000 * scale))
    samples = max(500, round(4e4 * scale))
    trees = max(200, round(8e3 * scale))
    k, r, r_k = 50, 3, 5
    zeta = b.limits.zeta

    def almost_local_checks(record, summary, observed):
        return [
            within("dpf_k50", record["dpf_k50"], 0.0, stray_pair_tol(b, 50, n)),
            # |boundary at r=2| >= 2 needs at least 1 + 1 + 2 cluster members
            within("bpf_r2", record["bpf_r2"], 0.0, stray_pair_tol(b, 4, n)),
        ]

    def distances_checks(record, summary, observed):
        zeta_sq = float(summary["theory_zeta_sq"])
        tol = Z * math.sqrt(zeta_sq * (1 - zeta_sq) / pairs + 4 * zeta_sq * VERTEX_VAR / n)
        return [near("finite_fraction", record["finite_fraction"], zeta_sq, tol)]

    def coupling_checks(record, summary, observed):
        # the theory columns bound the expected reuse counts; allow Z Poisson
        # standard deviations (at least Z) above them
        checks = []
        for name, bound in (("half_edge_reuses", "theory_he_bound"), ("vertex_reuses", "theory_vertex_bound")):
            mean = float(summary[bound])
            checks.append(at_most(name, record[name], mean + Z * math.sqrt(max(mean, 1.0))))
        return checks

    def zeta_mc(k_mc):
        return lambda rng: local_limit.zeta_geq_k(
            b.spec, k_mc, mode="monte_carlo", rng=rng, samples=samples
        )

    def zeta50_checks(est):
        # zeta <= P(T >= 50) <= P(T >= 30)
        tol = binomial_tol(zeta, samples)
        return [within("zeta_geq_50_mc", est, zeta - tol, b.p_geq(30) + tol)]

    def zeta30_checks(est):
        return [near("zeta_geq_30_mc", est, b.p_geq(30), binomial_tol(b.p_geq(30), samples))]

    def cond(rng):
        return local_limit.estimate_cond_limit(b.spec, k, r, r_k, samples, rng)

    def cond_checks(est):
        # a tree with >= r_k members at generation r has >= r + r_k members
        q = b.finite_mass(r + r_k)
        # big_cluster_small_boundary has no reference tighter than P(T >= k),
        # about 0.97 on this law against estimates near 1e-3, so it is not checked
        return [
            at_most("small_cluster_big_boundary", est.small_cluster_big_boundary, q + binomial_tol(q, samples)),
        ]

    def bp_trees(rng):
        runs = [local_limit.simulate_unimodular_bp(b.spec, 20, 1000, rng) for _ in range(trees)]
        return sum(run.truncated for run in runs) / trees

    def trees_checks(frac):
        # a tree reaching the 1000 cap has P(T >= 1000), between zeta and P(T >= 30)
        tol = binomial_tol(zeta, trees)
        return [within("capped_tree_frac", frac, zeta - tol, b.p_geq(30) + tol)]

    return (
        cli_job("almost_local", b, n, almost_local_checks, k=[50], r=[2]),
        cli_job("distances", b, n, distances_checks, pairs=pairs),
        cli_job("coupling", b, n, coupling_checks, m_exponent=0.6),
        sampler_job("zeta_geq_50_mc", 0, zeta_mc(50), zeta50_checks),
        sampler_job("zeta_geq_30_mc", 1, zeta_mc(30), zeta30_checks),
        sampler_job("cond_limit", 2, cond, cond_checks),
        sampler_job("bp_trees", 3, bp_trees, trees_checks),
    )


WORKLOADS = {"graph_core": graph_core, "local_conv": local_conv, "explore": explore}
